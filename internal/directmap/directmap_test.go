package directmap

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

func TestMulAddMod61AgainstNaive(t *testing.T) {
	// Cross-check the Mersenne folding against 128-bit-free modular
	// arithmetic on values small enough to avoid overflow in the naive
	// path, plus structured large values via the distributive law.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a := uint64(rng.Int63n(1 << 30))
		x := uint64(rng.Int63n(1 << 30))
		b := uint64(rng.Int63n(mersenne61))
		want := (a*x%mersenne61 + b) % mersenne61
		if got := mulAddMod61(a, x, b); got != want {
			t.Fatalf("mulAddMod61(%d, %d, %d): got %d, want %d", a, x, b, got, want)
		}
	}
}

func TestMulAddMod61LargeKeys(t *testing.T) {
	// h(x) must reduce keys >= 2^61 consistently: x and x mod p hash the
	// same way.
	for _, x := range []uint64{1 << 61, 1<<61 + 5, ^uint64(0), 3 << 62} {
		red := (x&mersenne61 + x>>61)
		if red >= mersenne61 {
			red -= mersenne61
		}
		if got, want := mulAddMod61(7, x, 3), mulAddMod61(7, red, 3); got != want {
			t.Fatalf("large key %d: %d vs reduced %d", x, got, want)
		}
	}
}

func TestUniversalHashRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h, err := NewUniversalHash(17, rng)
	if err != nil {
		t.Fatal(err)
	}
	if h.Buckets() != 17 {
		t.Fatalf("buckets: %d", h.Buckets())
	}
	for i := uint64(0); i < 10000; i++ {
		if b := h.Hash(i); b >= 17 {
			t.Fatalf("hash out of range: %d", b)
		}
	}
	if _, err := NewUniversalHash(0, rng); err == nil {
		t.Fatal("zero buckets accepted")
	}
}

func TestUniversalHashSpreads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m = 64
	h, err := NewUniversalHash(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, m)
	const n = 64 * 1000
	for i := uint64(0); i < n; i++ {
		counts[h.Hash(i*4096)]++ // page-aligned keys, the adversarial case
	}
	for b, c := range counts {
		if c == 0 {
			t.Fatalf("bucket %d empty over %d keys", b, n)
		}
		if c > 4*n/m {
			t.Fatalf("bucket %d overloaded: %d of %d", b, c, n)
		}
	}
}

func TestTransformErrors(t *testing.T) {
	if _, err := NewTransform(0, replacement.LRU, 4, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewTransform(4, replacement.LRU, 0, 1); err == nil {
		t.Fatal("factor=0 accepted")
	}
	if _, err := NewTransform(4, replacement.Clock, 4, 1); err == nil {
		t.Fatal("clock transform accepted (lemma covers LRU and FIFO only)")
	}
	// 3k block addresses must stay below the empty-slot marker, the
	// largest 32-bit page ID; refused before anything is allocated.
	if _, err := NewTransform(1<<31, replacement.LRU, 1, 1); err == nil || !strings.Contains(err.Error(), "past the largest page ID 4294967295") {
		t.Fatalf("k=2^31: error %v, want the page ID limit", err)
	}
}

// TestTransformMatchesAssoc is the heart of Lemma 1: the transformed
// program's hit/miss decisions must be *identical* to the
// fully-associative cache it simulates, for both LRU and FIFO, on any
// reference stream. The oracle is a k-page cache over the replacement
// policy itself: a hit touches, a miss evicts when full and inserts.
func TestTransformMatchesAssoc(t *testing.T) {
	for _, kind := range []replacement.Kind{replacement.LRU, replacement.FIFO} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			f := func(seed int64, kRaw uint8, ops []uint16) bool {
				k := int(kRaw%16) + 1
				pol := replacement.MustNew(kind, seed)
				xform, err := NewTransform(k, kind, 4, seed+1)
				if err != nil {
					t.Fatal(err)
				}
				var hits, misses uint64
				for i, op := range ops {
					page := model.PageID(op % 64)
					ah := pol.Contains(page)
					if ah {
						pol.Touch(page)
						hits++
					} else {
						if pol.Len() == k {
							pol.Evict()
						}
						pol.Insert(page)
						misses++
					}
					xh := xform.Access(page)
					if ah != xh {
						t.Fatalf("k=%d %s: step %d page %d: assoc hit=%v, transform hit=%v",
							k, kind, i, page, ah, xh)
					}
				}
				st := xform.Stats()
				if st.Hits != hits || st.Misses != misses {
					t.Fatalf("counts diverge: %d/%d vs %d/%d",
						st.Hits, st.Misses, hits, misses)
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTransformConstantOverhead measures Lemma 1's bounds on a long
// random stream: O(1) induced accesses per op, O(1) induced misses per
// original miss, O(1) expected chain length.
func TestTransformConstantOverhead(t *testing.T) {
	const k = 256
	xform, err := NewTransform(k, replacement.LRU, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200000; i++ {
		xform.Access(model.PageID(rng.Intn(4 * k)))
	}
	st := xform.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("degenerate stream: %+v", st)
	}
	if got := st.AccessesPerOp(); got > 12 {
		t.Errorf("induced accesses per op: %g (want O(1), ~<12)", got)
	}
	if got := st.MissesPerMiss(); got > 6 {
		t.Errorf("induced misses per original miss: %g (want O(1))", got)
	}
	if got := st.AvgChain(); got > 3 {
		t.Errorf("average chain length: %g (want O(1))", got)
	}
	if st.MaxChain > 12 {
		t.Errorf("max chain length: %d (suspiciously long for 2-universal hashing)", st.MaxChain)
	}
	// Mandatory DRAM traffic: one read per miss plus one write-back per
	// eviction; with the cache full almost always, roughly 2 per miss.
	if st.MandatoryDRAM < st.Misses || st.MandatoryDRAM > 2*st.Misses {
		t.Errorf("mandatory DRAM traffic %d outside [misses, 2*misses] = [%d, %d]",
			st.MandatoryDRAM, st.Misses, 2*st.Misses)
	}
}

func TestTransformStatsZero(t *testing.T) {
	var st TransformStats
	if st.AccessesPerOp() != 0 || st.MissesPerMiss() != 0 || st.AvgChain() != 0 {
		t.Fatal("zero stats should report zeros")
	}
}

// TestTransformFIFOOrder: under FIFO the transform must evict in insertion
// order even when pages are re-touched.
func TestTransformFIFOOrder(t *testing.T) {
	xform, err := NewTransform(2, replacement.FIFO, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	xform.Access(1) // miss, insert
	xform.Access(2) // miss, insert
	xform.Access(1) // hit (FIFO: no reorder)
	xform.Access(3) // miss, evicts 1 (first in)
	if xform.Access(2) != true {
		t.Fatal("page 2 should have survived (1 was first-in)")
	}
	if xform.Access(1) != false {
		t.Fatal("page 1 should have been evicted")
	}
}
