package replacement

import (
	"bytes"
	"strings"
	"testing"

	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// TestLoadStateRefusesForgeries writes one forged policy section per row
// with snap.Writer and requires the dense policy's loader to refuse it
// with its own error, not a panic: a page listed twice would build
// impossible residency, and Belady's core count, serve counts and cursor
// offsets index its tables.
func TestLoadStateRefusesForgeries(t *testing.T) {
	// Page 0 occurs twice, pages 1-3 once each: five references in all.
	traces := [][]model.PageID{{0, 1, 0}, {2, 3}}
	const universe = 4
	dense := func(kind Kind) func() Policy {
		return func() Policy {
			p, err := NewDense(kind, universe, 1)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	belady := func() Policy { return NewBeladyDense(traces, universe) }
	// beladyHead writes valid serve counts and cursor offsets, so the
	// resident set that follows is what the loader judges.
	beladyHead := func(w *snap.Writer) {
		w.Int(len(traces))
		w.U64(0)
		w.U64(0)
		for range universe {
			w.U64(0)
		}
	}
	for _, tc := range []struct {
		name  string
		pol   func() Policy
		forge func(w *snap.Writer)
		want  string
	}{
		{"lru page twice", dense(LRU), func(w *snap.Writer) {
			w.Int(2)
			w.U64(3)
			w.U64(3)
		}, "twice in replacement list"},
		{"fifo page twice", dense(FIFO), func(w *snap.Writer) {
			w.Int(3)
			w.U64(0)
			w.U64(1)
			w.U64(0)
		}, "twice in replacement list"},
		{"clock page twice", dense(Clock), func(w *snap.Writer) {
			w.Int(2)
			w.U64(2)
			w.Bool(true)
			w.U64(2)
			w.Bool(false)
		}, "twice in clock ring"},
		{"random page twice", dense(Random), func(w *snap.Writer) {
			w.Int(2)
			w.U64(1)
			w.U64(1)
		}, "twice in random set"},
		{"belady too few cores", belady, func(w *snap.Writer) {
			w.Int(1)
		}, "belady core count 1, want 2"},
		{"belady too many cores", belady, func(w *snap.Writer) {
			w.Int(3)
		}, "belady cores count 3 exceeds limit 2"},
		{"belady serve count past the traces", belady, func(w *snap.Writer) {
			w.Int(2)
			w.U64(6)
		}, "serve count 6 exceeds trace total 5"},
		{"belady cursor past its page's occurrences", belady, func(w *snap.Writer) {
			w.Int(2)
			w.U64(0)
			w.U64(0)
			w.U64(3) // page 0 occurs twice
		}, "cursor offset 3 exceeds page 0's 2 occurrences"},
		{"belady page twice", belady, func(w *snap.Writer) {
			beladyHead(w)
			w.Int(2)
			w.U64(1)
			w.U64(1)
		}, "twice in belady set"},
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
			tc.pol().(snap.Loader).LoadState(r)
			if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadState error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
