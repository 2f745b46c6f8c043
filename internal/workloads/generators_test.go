package workloads

import (
	"testing"

	"hbmsim/internal/model"
)

func TestDenseMMTrace(t *testing.T) {
	tr, err := DenseMMTrace(DenseMMConfig{N: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// i-k-j matmul: n^2 reads of A + n^3 reads of B + 2n^3 touches of C.
	want := 8*8 + 8*8*8 + 2*8*8*8
	if len(tr) != want {
		t.Fatalf("dense matmul refs: got %d, want %d", len(tr), want)
	}
	if _, err := DenseMMTrace(DenseMMConfig{N: 0}, 1); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestDenseMMWorkload(t *testing.T) {
	wl, err := DenseMMWorkload(3, DenseMMConfig{N: 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamTrace(t *testing.T) {
	tr, err := StreamTrace(StreamConfig{N: 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 300 { // 2 reads + 1 write per element
		t.Fatalf("stream refs: got %d, want 300", len(tr))
	}
	tr2, err := StreamTrace(StreamConfig{N: 100, Iterations: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2) != 900 {
		t.Fatalf("3-iteration stream refs: got %d, want 900", len(tr2))
	}
	if _, err := StreamTrace(StreamConfig{N: 0}, 1); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := StreamTrace(StreamConfig{N: 4, Iterations: -1}, 1); err == nil {
		t.Fatal("negative iterations accepted")
	}
}

func TestStreamWorkload(t *testing.T) {
	wl, err := StreamWorkload(2, StreamConfig{N: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdversarialTraceStructure(t *testing.T) {
	tr, err := AdversarialTrace(AdversarialConfig{Pages: 4, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []model.PageID{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}
	if len(tr) != len(want) {
		t.Fatalf("length: got %d, want %d", len(tr), len(want))
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace: got %v, want %v", tr, want)
		}
	}
}

func TestAdversarialDefaults(t *testing.T) {
	tr, err := AdversarialTrace(AdversarialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 256*100 {
		t.Fatalf("default trace length: got %d, want 25600", len(tr))
	}
}

func TestAdversarialErrors(t *testing.T) {
	if _, err := AdversarialTrace(AdversarialConfig{Pages: -1, Reps: 1}); err == nil {
		t.Fatal("negative pages accepted")
	}
	if _, err := AdversarialTrace(AdversarialConfig{Pages: 1, Reps: -1}); err == nil {
		t.Fatal("negative reps accepted")
	}
}

func TestAdversarialWorkloadAndSlots(t *testing.T) {
	cfg := AdversarialConfig{Pages: 16, Reps: 2}
	wl, err := AdversarialWorkload(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Validate(); err != nil {
		t.Fatal(err)
	}
	if wl.UniquePages() != 64 {
		t.Fatalf("unique pages: got %d, want 64", wl.UniquePages())
	}
	if got := AdversarialHBMSlots(4, cfg); got != 16 {
		t.Fatalf("slots: got %d, want 16 (1/4 of 64)", got)
	}
	if got := AdversarialHBMSlots(0, AdversarialConfig{Pages: 1, Reps: 1}); got != 1 {
		t.Fatalf("slots floor: got %d, want 1", got)
	}
}

func TestSyntheticKinds(t *testing.T) {
	for _, kind := range []SyntheticKind{Uniform, Zipfian, Strided} {
		tr, err := SyntheticTrace(SyntheticConfig{Kind: kind, Refs: 200, Pages: 16}, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(tr) != 200 {
			t.Fatalf("%s: length %d", kind, len(tr))
		}
		for _, p := range tr {
			if p >= 16 {
				t.Fatalf("%s: page %d out of universe", kind, p)
			}
		}
	}
}

func TestSyntheticErrors(t *testing.T) {
	if _, err := SyntheticTrace(SyntheticConfig{Refs: 0, Pages: 4}, 1); err == nil {
		t.Fatal("refs=0 accepted")
	}
	if _, err := SyntheticTrace(SyntheticConfig{Refs: 4, Pages: 0}, 1); err == nil {
		t.Fatal("pages=0 accepted")
	}
	if _, err := SyntheticTrace(SyntheticConfig{Kind: "bogus", Refs: 4, Pages: 4}, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := SyntheticTrace(SyntheticConfig{Kind: Zipfian, Refs: 4, Pages: 4, ZipfS: 0.5}, 1); err == nil {
		t.Fatal("zipf exponent <= 1 accepted")
	}
	if _, err := SyntheticTrace(SyntheticConfig{Kind: Strided, Refs: 4, Pages: 4, Stride: -2}, 1); err == nil {
		t.Fatal("negative stride accepted")
	}
}

// TestGeneratorsRefusePagesPast32Bits: a synthetic page universe of
// 2^32 pages fits 32-bit page IDs and builds; a larger one is refused
// rather than narrowed into a different trace. The adversarial cycle is
// refused the same way, before its trace is allocated.
func TestGeneratorsRefusePagesPast32Bits(t *testing.T) {
	for _, c := range []struct {
		kind  SyntheticKind
		pages int
		err   string
	}{
		{Uniform, 1 << 32, ""},
		{Zipfian, 1 << 32, ""},
		{Strided, 1 << 32, ""},
		{Uniform, 1<<32 + 1, "workloads: synthetic pages (4294967297) pass the 4294967296 32-bit page IDs"},
		{Zipfian, 1 << 40, "workloads: synthetic pages (1099511627776) pass the 4294967296 32-bit page IDs"},
		{Strided, 1 << 40, "workloads: synthetic pages (1099511627776) pass the 4294967296 32-bit page IDs"},
	} {
		tr, err := SyntheticTrace(SyntheticConfig{Kind: c.kind, Refs: 10, Pages: c.pages}, 1)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("%s, %d pages: error %v, want %q", c.kind, c.pages, err, c.err)
			}
			continue
		}
		if err != nil || len(tr) != 10 {
			t.Errorf("%s, %d pages: %d refs, error %v", c.kind, c.pages, len(tr), err)
		}
	}
	if _, err := AdversarialTrace(AdversarialConfig{Pages: 1<<32 + 1, Reps: 1}); err == nil || err.Error() != "workloads: adversarial pages (4294967297) pass the 4294967296 32-bit page IDs" {
		t.Errorf("adversarial, 2^32+1 pages: error %v", err)
	}
}

func TestStridedCoversUniverse(t *testing.T) {
	tr, err := SyntheticTrace(SyntheticConfig{Kind: Strided, Refs: 7, Pages: 7, Stride: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[model.PageID]bool{}
	for _, p := range tr {
		seen[p] = true
	}
	// gcd(3, 7) = 1: seven steps visit all seven pages.
	if len(seen) != 7 {
		t.Fatalf("strided walk covered %d of 7 pages", len(seen))
	}
}

func TestZipfSkew(t *testing.T) {
	tr, err := SyntheticTrace(SyntheticConfig{Kind: Zipfian, Refs: 5000, Pages: 100, ZipfS: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	count := map[model.PageID]int{}
	for _, p := range tr {
		count[p]++
	}
	if count[0] < len(tr)/4 {
		t.Fatalf("zipf s=2 should concentrate on page 0: got %d of %d", count[0], len(tr))
	}
}

func TestSyntheticWorkload(t *testing.T) {
	wl, err := SyntheticWorkload(4, SyntheticConfig{Refs: 50, Pages: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Validate(); err != nil {
		t.Fatal(err)
	}
}
