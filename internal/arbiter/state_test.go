package arbiter

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// restore loads what a's SaveState wrote into a fresh arbiter of the
// same kind under the ranks pri, as Resume does.
func restore(t *testing.T, kind Kind, p int, pri []int32, a Arbiter) Arbiter {
	t.Helper()
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	a.(snap.Saver).SaveState(w)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	b := MustNew(kind, p, 5)
	b.UpdatePriorities(pri)
	r := snap.NewReader(&buf)
	r.MaxCores, r.MaxPages, r.MaxDraws = uint64(p), 1<<20, 1<<20
	b.(snap.Loader).LoadState(r)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	if f, ok := b.(snap.Finisher); ok {
		if err := f.FinishLoad(); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestStateRoundTrip saves each arbiter's queue after pushes, pops and a
// re-rank, restores it, and requires Requests to list the same queue and
// the two arbiters to pop it in the same order.
func TestStateRoundTrip(t *testing.T) {
	const p = 70 // two words of the Priority bitmask
	pri := make([]int32, p)
	for c := range pri {
		pri[c] = int32(p - 1 - c)
	}
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			a := MustNew(kind, p, 5)
			for c := 0; c < p; c += 3 {
				a.Push(req(model.CoreID(c), uint64(c+1)))
			}
			a.Pop()
			a.Pop()
			a.UpdatePriorities(pri)
			b := restore(t, kind, p, pri, a)
			if got, want := b.Requests(nil), a.Requests(nil); len(want) != a.Len() || !reflect.DeepEqual(got, want) {
				t.Fatalf("restored queue %v, want %v (%d queued)", got, want, a.Len())
			}
			for {
				ra, oka := a.Pop()
				rb, okb := b.Pop()
				if ra != rb || oka != okb {
					t.Fatalf("pops diverge: %v %v vs %v %v", ra, oka, rb, okb)
				}
				if !oka {
					break
				}
			}
		})
	}
}

// TestLoadStateRefusesForgeries writes one forged queue section per row
// and requires the arbiter's loader to refuse it with an error, not a
// panic.
func TestLoadStateRefusesForgeries(t *testing.T) {
	const p = 4
	request := func(w *snap.Writer, c int) {
		w.U64(uint64(c)) // core
		w.U64(7)         // page
		w.U64(1)         // issued
		w.U64(1)         // seq
	}
	for _, tc := range []struct {
		name  string
		kind  Kind
		forge func(w *snap.Writer)
		want  string
	}{
		{"two requests at one priority rank", Priority, func(w *snap.Writer) {
			w.Int(2)
			request(w, 1)
			request(w, 1)
		}, "both queued at priority rank"},
		{"more requests than cores", FIFO, func(w *snap.Writer) {
			w.Int(p + 1)
		}, "exceeds limit"},
		{"a core out of range", Random, func(w *snap.Writer) {
			w.Int(1)
			request(w, p)
		}, "out of range"},
		{"a draw count past the limit", Random, func(w *snap.Writer) {
			w.Int(0)
			w.U64(1 << 40)
		}, "draw count"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := snap.NewWriter(&buf)
			tc.forge(w)
			if err := w.Finish(); err != nil {
				t.Fatal(err)
			}
			r := snap.NewReader(&buf)
			r.MaxCores, r.MaxPages, r.MaxDraws = p, 8, 100
			MustNew(tc.kind, p, 1).(snap.Loader).LoadState(r)
			if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadState error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
