package arbiter

import (
	"testing"
	"testing/quick"
)

func identity(p int) []int32 {
	pri := make([]int32, p)
	for i := range pri {
		pri[i] = int32(i)
	}
	return pri
}

func isPermutation(pri []int32) bool {
	seen := make([]bool, len(pri))
	for _, r := range pri {
		if r < 0 || int(r) >= len(pri) || seen[r] {
			return false
		}
		seen[r] = true
	}
	return true
}

func TestNewPermuterErrors(t *testing.T) {
	if _, err := NewPermuter("bogus", 0); err == nil {
		t.Fatal("unknown permuter should be rejected")
	}
}

func TestMustNewPermuterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewPermuter("bogus", 0)
}

func TestPermuterKindsConstructAll(t *testing.T) {
	for _, k := range PermuterKinds() {
		if _, err := NewPermuter(k, 1); err != nil {
			t.Fatalf("NewPermuter(%s): %v", k, err)
		}
	}
}

func TestStaticLeavesIdentity(t *testing.T) {
	p := MustNewPermuter(Static, 0)
	pri := identity(8)
	p.Permute(pri)
	for i, r := range pri {
		if r != int32(i) {
			t.Fatalf("static changed rank of core %d to %d", i, r)
		}
	}
}

func TestCycleRotates(t *testing.T) {
	p := MustNewPermuter(Cycle, 0)
	pri := identity(4)
	p.Permute(pri)
	want := []int32{1, 2, 3, 0}
	for i := range pri {
		if pri[i] != want[i] {
			t.Fatalf("cycle: got %v, want %v", pri, want)
		}
	}
	// p rotations return to the identity.
	for i := 0; i < 3; i++ {
		p.Permute(pri)
	}
	for i, r := range pri {
		if r != int32(i) {
			t.Fatalf("4 rotations of p=4 should be identity, got %v", pri)
		}
	}
}

func TestCycleReverseUndoesCycle(t *testing.T) {
	f := MustNewPermuter(Cycle, 0)
	b := MustNewPermuter(CycleReverse, 0)
	pri := identity(7)
	f.Permute(pri)
	b.Permute(pri)
	for i, r := range pri {
		if r != int32(i) {
			t.Fatalf("cycle then cycle-reverse should be identity, got %v", pri)
		}
	}
}

func TestCycleEveryRankOnTop(t *testing.T) {
	// Within p permutations, every core must hold rank 0 exactly once —
	// the paper's bound on response time (a thread becomes highest
	// priority within p permutations).
	const p = 6
	perm := MustNewPermuter(Cycle, 0)
	pri := identity(p)
	onTop := map[int]bool{}
	for step := 0; step < p; step++ {
		for c, r := range pri {
			if r == 0 {
				onTop[c] = true
			}
		}
		perm.Permute(pri)
	}
	if len(onTop) != p {
		t.Fatalf("only %d of %d cores reached rank 0: %v", len(onTop), p, onTop)
	}
}

func TestInterleaveSmall(t *testing.T) {
	p := MustNewPermuter(Interleave, 0)
	pri := identity(6) // half = 3: 0,1,2 -> 0,2,4; 3,4,5 -> 1,3,5
	p.Permute(pri)
	want := []int32{0, 2, 4, 1, 3, 5}
	for i := range pri {
		if pri[i] != want[i] {
			t.Fatalf("interleave: got %v, want %v", pri, want)
		}
	}
}

func TestInterleaveOdd(t *testing.T) {
	p := MustNewPermuter(Interleave, 0)
	pri := identity(5) // half = 3: 0,1,2 -> 0,2,4; 3,4 -> 1,3
	p.Permute(pri)
	want := []int32{0, 2, 4, 1, 3}
	for i := range pri {
		if pri[i] != want[i] {
			t.Fatalf("interleave odd: got %v, want %v", pri, want)
		}
	}
}

func TestDynamicSeedDeterminism(t *testing.T) {
	run := func(seed int64) []int32 {
		p := MustNewPermuter(Dynamic, seed)
		pri := identity(16)
		p.Permute(pri)
		p.Permute(pri)
		return pri
	}
	a, b := run(3), run(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	c := run(4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical permutations (suspicious)")
	}
}

func TestDynamicIndependentOfCurrent(t *testing.T) {
	// Dynamic draws a fresh permutation regardless of the incoming one.
	p1 := MustNewPermuter(Dynamic, 5)
	p2 := MustNewPermuter(Dynamic, 5)
	a := identity(8)
	b := []int32{7, 6, 5, 4, 3, 2, 1, 0}
	p1.Permute(a)
	p2.Permute(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dynamic depends on prior state: %v vs %v", a, b)
		}
	}
}

// TestPermutersPropertyAlwaysPermutation: every permuter maps permutations
// to permutations for any size, over repeated applications.
func TestPermutersPropertyAlwaysPermutation(t *testing.T) {
	for _, kind := range PermuterKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			f := func(sizeRaw uint8, steps uint8, seed int64) bool {
				size := int(sizeRaw%64) + 1
				p := MustNewPermuter(kind, seed)
				pri := identity(size)
				for s := 0; s < int(steps%8)+1; s++ {
					p.Permute(pri)
					if !isPermutation(pri) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPermuteEmpty(t *testing.T) {
	for _, kind := range PermuterKinds() {
		p := MustNewPermuter(kind, 0)
		p.Permute(nil) // must not panic
	}
}
