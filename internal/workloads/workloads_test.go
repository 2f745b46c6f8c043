package workloads

import (
	"testing"

	"hbmsim/internal/trace"
)

func TestBuildParallelDeterministic(t *testing.T) {
	gen := func(seed int64) (trace.Trace, error) {
		return SyntheticTrace(SyntheticConfig{Refs: 50, Pages: 10}, seed)
	}
	a, err := Build("w", 8, 1, gen)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("w", 8, 1, gen)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Traces {
		for j := range a.Traces[i] {
			if a.Traces[i][j] != b.Traces[i][j] {
				t.Fatalf("build not deterministic at core %d ref %d", i, j)
			}
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("built workload not disjoint: %v", err)
	}
}

func TestBuildErrors(t *testing.T) {
	gen := func(seed int64) (trace.Trace, error) {
		return SyntheticTrace(SyntheticConfig{Refs: -1, Pages: 10}, seed)
	}
	if _, err := Build("w", 2, 1, gen); err == nil {
		t.Fatal("generator errors must propagate")
	}
	ok := func(int64) (trace.Trace, error) { return trace.Trace{1}, nil }
	if _, err := Build("w", 0, 1, ok); err == nil {
		t.Fatal("zero cores should be rejected")
	}
}

func TestImbalance(t *testing.T) {
	base := trace.Raw("b", []trace.Trace{
		make(trace.Trace, 100), make(trace.Trace, 100), make(trace.Trace, 100),
	})
	wl, err := Imbalance(base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Traces[0]) != 50 || len(wl.Traces[1]) != 75 || len(wl.Traces[2]) != 100 {
		t.Fatalf("imbalance lengths: %d/%d/%d", len(wl.Traces[0]), len(wl.Traces[1]), len(wl.Traces[2]))
	}
	if _, err := Imbalance(base, 0); err == nil {
		t.Fatal("minFrac 0 should be rejected")
	}
	if _, err := Imbalance(base, 1.5); err == nil {
		t.Fatal("minFrac > 1 should be rejected")
	}
}

func TestImbalanceSingleCore(t *testing.T) {
	base := trace.Raw("b", []trace.Trace{make(trace.Trace, 10)})
	wl, err := Imbalance(base, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Traces[0]) != 10 {
		t.Fatalf("single core should keep full trace, got %d", len(wl.Traces[0]))
	}
}

func TestImbalanceKeepsAtLeastOneRef(t *testing.T) {
	base := trace.Raw("b", []trace.Trace{{1, 2}, {3, 4}})
	wl, err := Imbalance(base, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Traces[0]) < 1 {
		t.Fatal("imbalance truncated a trace to zero")
	}
}

// TestBuildMatchesNewWorkload pins Build's parallel renumbering to
// trace.NewWorkload over the same per-core traces.
func TestBuildMatchesNewWorkload(t *testing.T) {
	gen := func(seed int64) (trace.Trace, error) {
		return SpGEMMTrace(SpGEMMConfig{N: 20, PageBytes: 64}, seed)
	}
	got, err := Build("w", 6, 4, gen)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]trace.Trace, 6)
	for i := range raw {
		if raw[i], err = gen(4 + int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	assertSameWorkload(t, got, trace.NewWorkload("w", raw))
}

// TestBuildNeverWritesGenSlice hands every core the same slice, as a Gen
// that caches its output may. The workload must equal the one built from
// fresh copies, and the shared slice must come back untouched. Build
// reads the slice from every generation goroutine at once, so this test
// is also the race detector's (make test-race).
func TestBuildNeverWritesGenSlice(t *testing.T) {
	shared := trace.Trace{40, 41, 40, 42, 43, 41, 40}
	orig := append(trace.Trace(nil), shared...)
	got, err := Build("w", 8, 1, func(int64) (trace.Trace, error) { return shared, nil })
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build("w", 8, 1, func(int64) (trace.Trace, error) {
		return append(trace.Trace(nil), orig...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameWorkload(t, got, want)
	for j := range orig {
		if shared[j] != orig[j] {
			t.Fatalf("Build wrote the Gen's slice: %v, was %v", shared, orig)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func assertSameWorkload(t *testing.T, got, want *trace.Workload) {
	t.Helper()
	if got.Name != want.Name || got.Cores() != want.Cores() {
		t.Fatalf("workload %q with %d cores, want %q with %d", got.Name, got.Cores(), want.Name, want.Cores())
	}
	for i := range want.Traces {
		if len(got.Traces[i]) != len(want.Traces[i]) {
			t.Fatalf("core %d: %d refs, want %d", i, len(got.Traces[i]), len(want.Traces[i]))
		}
		for j, p := range want.Traces[i] {
			if got.Traces[i][j] != p {
				t.Fatalf("core %d ref %d: page %d, want %d", i, j, got.Traces[i][j], p)
			}
		}
	}
}
