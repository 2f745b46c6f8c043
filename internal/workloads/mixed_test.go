package workloads

import (
	"strings"
	"sync"
	"testing"

	"hbmsim/internal/trace"
)

func TestMixedBuildsDisjointComponents(t *testing.T) {
	wl, err := Mixed([]MixedSpec{
		{Cores: 2, Name: "loop", Gen: func(seed int64) (trace.Trace, error) {
			return AdversarialTrace(AdversarialConfig{Pages: 4, Reps: 2})
		}},
		{Cores: 3, Name: "rand", Gen: func(seed int64) (trace.Trace, error) {
			return SyntheticTrace(SyntheticConfig{Refs: 10, Pages: 5}, seed)
		}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Cores() != 5 {
		t.Fatalf("cores: %d", wl.Cores())
	}
	if err := wl.Validate(); err != nil {
		t.Fatalf("not disjoint: %v", err)
	}
	if !strings.Contains(wl.Name, "2xloop") || !strings.Contains(wl.Name, "3xrand") {
		t.Fatalf("name: %q", wl.Name)
	}
	// Component layout: first two cores are the 8-ref loops.
	if len(wl.Traces[0]) != 8 || len(wl.Traces[4]) != 10 {
		t.Fatalf("layout wrong: %d / %d", len(wl.Traces[0]), len(wl.Traces[4]))
	}
}

func TestMixedSeedsDistinctAcrossComponents(t *testing.T) {
	// Build runs the generators concurrently, so the tally is locked.
	var mu sync.Mutex
	seen := map[int64]int{}
	gen := func(seed int64) (trace.Trace, error) {
		mu.Lock()
		seen[seed]++
		mu.Unlock()
		return trace.Trace{1}, nil
	}
	if _, err := Mixed([]MixedSpec{
		{Cores: 2, Name: "a", Gen: gen},
		{Cores: 2, Name: "b", Gen: gen},
	}, 10); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("expected 4 distinct seeds, got %v", seen)
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("seed %d used %d times", s, n)
		}
	}
}

func TestMixedErrors(t *testing.T) {
	if _, err := Mixed(nil, 1); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := Mixed([]MixedSpec{{Cores: 0, Name: "x", Gen: func(int64) (trace.Trace, error) { return nil, nil }}}, 1); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := Mixed([]MixedSpec{{Cores: 1, Name: "x"}}, 1); err == nil {
		t.Fatal("nil generator accepted")
	}
	bad := func(int64) (trace.Trace, error) {
		return SyntheticTrace(SyntheticConfig{Refs: -1, Pages: 1}, 0)
	}
	if _, err := Mixed([]MixedSpec{{Cores: 1, Name: "bad", Gen: bad}}, 1); err == nil {
		t.Fatal("generator error not propagated")
	}
}

// TestMixedMatchesNewWorkload pins Mixed's offset layout to renumbering
// the concatenated component traces with trace.NewWorkload.
func TestMixedMatchesNewWorkload(t *testing.T) {
	specs := []MixedSpec{
		{Cores: 2, Name: "sort", Gen: func(seed int64) (trace.Trace, error) {
			return SortTrace(SortConfig{N: 200, PageBytes: 64}, seed)
		}},
		{Cores: 3, Name: "bfs", Gen: func(seed int64) (trace.Trace, error) {
			return BFSTrace(BFSConfig{Vertices: 50, PageBytes: 8}, seed)
		}},
		{Cores: 1, Name: "loop", Gen: func(int64) (trace.Trace, error) {
			return AdversarialTrace(AdversarialConfig{Pages: 16, Reps: 2})
		}},
	}
	got, err := Mixed(specs, 5)
	if err != nil {
		t.Fatal(err)
	}
	var raw []trace.Trace
	seed := int64(5)
	for _, sp := range specs {
		for i := 0; i < sp.Cores; i++ {
			tr, err := sp.Gen(seed)
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, tr)
			seed++
		}
	}
	assertSameWorkload(t, got, trace.NewWorkload(got.Name, raw))
}
