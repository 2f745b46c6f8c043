package hbm

import (
	"bytes"
	"strings"
	"testing"

	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
	"hbmsim/internal/snap"
)

// TestLoadStateRefusesForgeries writes one forged store section per row
// with snap.Writer and requires the store's loader to refuse it with its
// own error, not a panic: each forgery would build residency no run can
// reach.
func TestLoadStateRefusesForgeries(t *testing.T) {
	const k, universe = 4, 8
	direct := func() snap.Loader {
		s, err := NewDenseDirectMapped(k, 1, universe, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	dm := direct().(*DenseDirectMapped)
	// Eight pages in four slots: two of them share a slot.
	var p, q model.PageID
	for a := range model.PageID(universe) {
		for b := a + 1; b < universe; b++ {
			if dm.slotOf[a] == dm.slotOf[b] {
				p, q = a, b
			}
		}
	}
	if dm.slotOf[p] != dm.slotOf[q] || p == q {
		t.Fatal("no two pages share a slot")
	}
	assoc := func(pol replacement.Policy) func() snap.Loader {
		return func() snap.Loader {
			s, err := NewAssoc(2, pol)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	denseLRU, err := replacement.NewDense(replacement.LRU, universe, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		store func() snap.Loader
		forge func(w *snap.Writer)
		want  string
	}{
		{"direct-mapped slot out of range", direct, func(w *snap.Writer) {
			w.Int(1)
			w.U64(k)
			w.U64(0)
		}, "slot 4 out of range"},
		{"direct-mapped page in another page's slot", direct, func(w *snap.Writer) {
			w.Int(1)
			w.U64(uint64(dm.slotOf[p]+1) % k)
			w.U64(uint64(p))
		}, "hash says"},
		{"direct-mapped slot occupied twice", direct, func(w *snap.Writer) {
			w.Int(2)
			w.U64(uint64(dm.slotOf[p]))
			w.U64(uint64(p))
			w.U64(uint64(dm.slotOf[q]))
			w.U64(uint64(q))
		}, "occupied twice"},
		{"associative store over capacity", assoc(denseLRU), func(w *snap.Writer) {
			w.Int(3)
			w.U64(0)
			w.U64(1)
			w.U64(2)
		}, "3 resident pages for capacity 2"},
		{"associative store over a policy with no snapshot", assoc(replacement.MustNew(replacement.LRU, 1)), func(w *snap.Writer) {
			w.Int(0)
		}, "does not support checkpointing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := snap.NewWriter(&buf)
			tc.forge(w)
			if err := w.Finish(); err != nil {
				t.Fatal(err)
			}
			r := snap.NewReader(&buf)
			r.MaxPages = universe
			tc.store().LoadState(r)
			if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadState error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
