package replacement

import (
	"math/rand"
	"testing"

	"hbmsim/internal/model"
)

// TestDenseMatchesSparse drives each dense policy and its map-based
// counterpart through the same random operation sequence and requires
// identical answers from every method, including the full eviction
// order. Random is seeded identically on both sides; the dense variant
// must consume the rng in the same call sequence to stay in lockstep.
func TestDenseMatchesSparse(t *testing.T) {
	const universe = 128
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			dense, err := NewDense(kind, universe, 99)
			if err != nil {
				t.Fatal(err)
			}
			sparse, err := New(kind, 99)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(41))
			for step := 0; step < 5000; step++ {
				p := model.PageID(rng.Intn(universe))
				if dense.Contains(p) != sparse.Contains(p) {
					t.Fatalf("step %d: Contains(%d) diverges", step, p)
				}
				switch op := rng.Intn(8); {
				case op < 4: // insert if absent, else touch
					if sparse.Contains(p) {
						dense.Touch(p)
						sparse.Touch(p)
					} else {
						dense.Insert(p)
						sparse.Insert(p)
					}
				case op < 6:
					dense.Touch(p)
					sparse.Touch(p)
				default:
					dv, dok := dense.Evict()
					sv, sok := sparse.Evict()
					if dok != sok || dv != sv {
						t.Fatalf("step %d: Evict diverges: (%d,%v) vs (%d,%v)", step, dv, dok, sv, sok)
					}
				}
				if dense.Len() != sparse.Len() {
					t.Fatalf("step %d: Len %d vs %d", step, dense.Len(), sparse.Len())
				}
			}
			// Drain both: the complete eviction orders must match.
			for {
				dv, dok := dense.Evict()
				sv, sok := sparse.Evict()
				if dok != sok || dv != sv {
					t.Fatalf("drain: Evict diverges: (%d,%v) vs (%d,%v)", dv, dok, sv, sok)
				}
				if !dok {
					break
				}
			}
		})
	}
}

// TestBeladyDenseMatchesSparse replays a workload trace against both
// Belady implementations, mirroring how the simulator drives them:
// Touch on every reference, Evict when a bounded "store" overflows.
func TestBeladyDenseMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	traces := make([][]model.PageID, 3)
	next := model.PageID(0)
	for i := range traces {
		tr := make([]model.PageID, 400)
		pool := make([]model.PageID, 24)
		for j := range pool {
			pool[j] = next
			next++
		}
		for j := range tr {
			tr[j] = pool[rng.Intn(len(pool))]
		}
		traces[i] = tr
	}

	dense := NewBeladyDense(traces, int(next))
	sparse := NewBelady(traces)
	const capacity = 16
	for pos := 0; pos < 400; pos++ {
		for _, tr := range traces {
			p := tr[pos]
			if dense.Contains(p) != sparse.Contains(p) {
				t.Fatalf("pos %d: Contains(%d) diverges", pos, p)
			}
			if dense.Contains(p) {
				dense.Touch(p)
				sparse.Touch(p)
			} else {
				if dense.Len() >= capacity {
					dv, dok := dense.Evict()
					sv, sok := sparse.Evict()
					if dok != sok || dv != sv {
						t.Fatalf("pos %d: Evict diverges: (%d,%v) vs (%d,%v)", pos, dv, dok, sv, sok)
					}
				}
				dense.Insert(p)
				sparse.Insert(p)
				// The simulator touches a page as it is served after
				// landing; mirror that to advance both cursors.
				dense.Touch(p)
				sparse.Touch(p)
			}
			if dense.Len() != sparse.Len() {
				t.Fatalf("pos %d: Len %d vs %d", pos, dense.Len(), sparse.Len())
			}
		}
	}
	for {
		dv, dok := dense.Evict()
		sv, sok := sparse.Evict()
		if dok != sok || dv != sv {
			t.Fatalf("drain: Evict diverges: (%d,%v) vs (%d,%v)", dv, dok, sv, sok)
		}
		if !dok {
			break
		}
	}
}

// TestNewDenseErrors covers constructor validation.
func TestNewDenseErrors(t *testing.T) {
	if _, err := NewDense(Kind("nope"), 8, 0); err == nil {
		t.Fatal("unknown kind should be rejected")
	}
	if _, err := NewDense(LRU, -1, 0); err == nil {
		t.Fatal("negative universe should be rejected")
	}
	p, err := NewDense(LRU, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 {
		t.Fatalf("empty-universe policy tracks %d pages", p.Len())
	}
	if _, ok := p.Evict(); ok {
		t.Fatal("Evict on empty policy should report ok=false")
	}
}
