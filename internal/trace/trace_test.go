package trace

import (
	"testing"

	"hbmsim/internal/model"
)

func TestNewWorkloadDisjoint(t *testing.T) {
	// Three cores referencing the same page numbers must be renumbered
	// into disjoint ranges with the structure preserved.
	in := []Trace{
		{1, 2, 1, 3},
		{1, 1, 2},
		{5},
	}
	wl := NewWorkload("w", in)
	if err := wl.Validate(); err != nil {
		t.Fatalf("renumbered workload not disjoint: %v", err)
	}
	// Structure preserved: repeats stay repeats.
	if wl.Traces[0][0] != wl.Traces[0][2] {
		t.Error("core 0 repeat structure lost")
	}
	if wl.Traces[0][0] == wl.Traces[0][1] {
		t.Error("core 0 distinct pages collapsed")
	}
	if wl.Traces[1][0] != wl.Traces[1][1] {
		t.Error("core 1 repeat structure lost")
	}
	if wl.UniquePages() != 3+2+1 {
		t.Errorf("unique pages: got %d, want 6", wl.UniquePages())
	}
}

func TestNewWorkloadDense(t *testing.T) {
	wl := NewWorkload("w", []Trace{{100, 200, 100}})
	// Renumbering is dense from zero.
	if wl.Traces[0][0] != 0 || wl.Traces[0][1] != 1 || wl.Traces[0][2] != 0 {
		t.Fatalf("dense renumbering: got %v", wl.Traces[0])
	}
}

func TestValidateDetectsOverlap(t *testing.T) {
	wl := Raw("bad", []Trace{{1, 2}, {2, 3}})
	if err := wl.Validate(); err == nil {
		t.Fatal("overlapping traces must fail validation")
	}
	ok := Raw("good", []Trace{{1, 2}, {3, 4}})
	if err := ok.Validate(); err != nil {
		t.Fatalf("disjoint traces flagged: %v", err)
	}
}

func TestWorkloadStats(t *testing.T) {
	wl := Raw("w", []Trace{{1, 2, 3}, {10, 10}, nil})
	if wl.Cores() != 3 {
		t.Errorf("cores: %d", wl.Cores())
	}
	if wl.TotalRefs() != 5 {
		t.Errorf("total refs: %d", wl.TotalRefs())
	}
	if wl.MaxTraceLen() != 3 {
		t.Errorf("max trace len: %d", wl.MaxTraceLen())
	}
	if wl.UniquePages() != 4 {
		t.Errorf("unique pages: %d", wl.UniquePages())
	}
	per := wl.UniquePagesPerCore()
	if per[0] != 3 || per[1] != 1 || per[2] != 0 {
		t.Errorf("per-core unique: %v", per)
	}
}

func TestSubset(t *testing.T) {
	wl := Raw("w", []Trace{{1}, {2}, {3}})
	sub := wl.Subset(2)
	if sub.Cores() != 2 || sub.Traces[1][0] != 2 {
		t.Fatalf("subset wrong: %+v", sub)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized subset should panic")
		}
	}()
	wl.Subset(4)
}

func TestRawView(t *testing.T) {
	wl := Raw("w", []Trace{{1, 2}})
	raw := wl.Raw()
	if len(raw) != 1 || raw[0][1] != model.PageID(2) {
		t.Fatalf("raw view wrong: %v", raw)
	}
}

func TestPageMapper(t *testing.T) {
	m, err := NewPageMapper(4096)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr uint64
		want model.PageID
	}{
		{0, 0}, {4095, 0}, {4096, 1}, {8191, 1}, {1 << 20, 256},
	}
	for _, c := range cases {
		if got := m.Page(c.addr); got != c.want {
			t.Errorf("Page(%d): got %d, want %d", c.addr, got, c.want)
		}
	}
	if _, err := NewPageMapper(0); err == nil {
		t.Error("page size 0 should be rejected")
	}
	if _, err := NewPageMapper(-1); err == nil {
		t.Error("negative page size should be rejected")
	}
}
