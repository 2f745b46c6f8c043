package replacement

import (
	"testing"

	"hbmsim/internal/model"
)

func TestBeladyKindNotConstructibleByNew(t *testing.T) {
	if _, err := New(Belady, 0); err == nil {
		t.Fatal("New(Belady) should fail: it needs the traces")
	}
}

func TestBeladyEvictsFurthestNextUse(t *testing.T) {
	// One core: trace references page 1 soon, page 2 later, page 3 never
	// again after its first use.
	tr := [][]model.PageID{{1, 2, 3, 1, 2, 1}}
	b := NewBelady(tr).(*beladyPolicy)
	b.Insert(1)
	b.Touch(1) // serve position 0
	b.Insert(2)
	b.Touch(2) // position 1
	b.Insert(3)
	b.Touch(3) // position 2
	// Positions served: 0,1,2. Next uses: page 1 at 3 (distance 0),
	// page 2 at 4 (distance 1), page 3 never (infinite).
	got, ok := b.Evict()
	if !ok || got != 3 {
		t.Fatalf("evict: got %d, want 3 (never used again)", got)
	}
	got, ok = b.Evict()
	if !ok || got != 2 {
		t.Fatalf("evict: got %d, want 2 (used later than 1)", got)
	}
	got, ok = b.Evict()
	if !ok || got != 1 {
		t.Fatalf("evict: got %d, want 1", got)
	}
	if _, ok := b.Evict(); ok {
		t.Fatal("empty evict should fail")
	}
}

func TestBeladyMultiCoreDistances(t *testing.T) {
	// Core 0 will use page 10 on its very next serve; core 1 will not
	// use page 20 for three more serves.
	tr := [][]model.PageID{
		{10, 10},
		{20, 21, 22, 23, 20},
	}
	b := NewBelady(tr).(*beladyPolicy)
	b.Insert(10)
	b.Touch(10) // core 0 at position 1; next use of 10 at 1 (distance 0)
	b.Insert(20)
	b.Touch(20) // core 1 at position 1; next use of 20 at 4 (distance 3)
	got, ok := b.Evict()
	if !ok || got != 20 {
		t.Fatalf("evict: got %d, want 20 (further next use)", got)
	}
}

func TestBeladyReinsertAfterEviction(t *testing.T) {
	tr := [][]model.PageID{{1, 2, 1, 2}}
	b := NewBelady(tr).(*beladyPolicy)
	b.Insert(1)
	b.Touch(1) // pos 1
	b.Evict()
	b.Insert(2)
	b.Touch(2) // pos 2
	// Page 1 re-enters; its cursor must skip the consumed occurrence 0
	// and point at occurrence 2.
	b.Insert(1)
	if d := b.distance(1); d != 0 {
		t.Fatalf("distance after reinsert: got %d, want 0 (next use is position 2, pos is 2)", d)
	}
}

func TestBeladyContractBasics(t *testing.T) {
	tr := [][]model.PageID{{1, 2, 3}}
	b := NewBelady(tr)
	b.Insert(1)
	b.Insert(1) // double insert tolerated
	if b.Len() != 1 || !b.Contains(1) || b.Contains(2) {
		t.Fatalf("basic state wrong: len=%d", b.Len())
	}
	b.Touch(99) // unknown page: no-op
}

// TestBeladyNeverWorseThanLRUOnSingleCore: the defining property of MIN on
// a single stream — fewer (or equal) misses than any online policy when
// simulated as a plain cache.
func TestBeladyNeverWorseThanLRUOnSingleCore(t *testing.T) {
	// A looping trace over 6 pages with a 4-page cache: LRU thrashes,
	// MIN does not.
	var tr []model.PageID
	for r := 0; r < 20; r++ {
		for p := model.PageID(0); p < 6; p++ {
			tr = append(tr, p)
		}
	}
	misses := func(pol Policy) int {
		const k = 4
		n := 0
		for _, p := range tr {
			if pol.Contains(p) {
				pol.Touch(p)
				continue
			}
			n++
			if pol.Len() == k {
				pol.Evict()
			}
			pol.Insert(p)
			pol.Touch(p)
		}
		return n
	}
	lru := misses(MustNew(LRU, 0))
	min := misses(NewBelady([][]model.PageID{tr}))
	if min > lru {
		t.Fatalf("Belady missed more than LRU: %d vs %d", min, lru)
	}
	if min >= len(tr) {
		t.Fatalf("Belady should hit sometimes: %d misses of %d refs", min, len(tr))
	}
}
