package replacement

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hbmsim/internal/model"
)

func TestNewUnknownKind(t *testing.T) {
	if _, err := New("nope", 0); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestKindsConstructAll(t *testing.T) {
	for _, k := range Kinds() {
		if _, err := New(k, 1); err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad kind should panic")
		}
	}()
	MustNew("bogus", 0)
}

func TestLRUEvictionOrder(t *testing.T) {
	p := MustNew(LRU, 0)
	p.Insert(1)
	p.Insert(2)
	p.Insert(3)
	p.Touch(1) // order now 2, 3, 1
	for _, want := range []model.PageID{2, 3, 1} {
		got, ok := p.Evict()
		if !ok || got != want {
			t.Fatalf("evict: got %d/%v, want %d", got, ok, want)
		}
	}
	if _, ok := p.Evict(); ok {
		t.Fatal("evict from empty should report !ok")
	}
}

func TestLRUTouchUnknownIsNoop(t *testing.T) {
	p := MustNew(LRU, 0)
	p.Insert(1)
	p.Touch(99)
	if got, _ := p.Evict(); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
}

func TestLRUTouchTailIsNoop(t *testing.T) {
	p := MustNew(LRU, 0)
	p.Insert(1)
	p.Insert(2)
	p.Touch(2) // already MRU
	if got, _ := p.Evict(); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
}

func TestFIFOIgnoresTouch(t *testing.T) {
	p := MustNew(FIFO, 0)
	p.Insert(1)
	p.Insert(2)
	p.Insert(3)
	p.Touch(1)
	p.Touch(1)
	for _, want := range []model.PageID{1, 2, 3} {
		got, ok := p.Evict()
		if !ok || got != want {
			t.Fatalf("evict: got %d/%v, want %d", got, ok, want)
		}
	}
}

func TestListDoubleInsertActsAsTouch(t *testing.T) {
	p := MustNew(LRU, 0)
	p.Insert(1)
	p.Insert(2)
	p.Insert(1) // contract violation; treated as Touch
	if p.Len() != 2 {
		t.Fatalf("len: got %d, want 2", p.Len())
	}
	if got, _ := p.Evict(); got != 2 {
		t.Fatalf("got %d, want 2 (1 refreshed)", got)
	}
}

func TestClockSecondChance(t *testing.T) {
	p := MustNew(Clock, 0)
	p.Insert(1)
	p.Insert(2)
	p.Insert(3)
	p.Touch(1) // 1 gets a reference bit
	got, ok := p.Evict()
	if !ok {
		t.Fatal("evict failed")
	}
	if got == 1 {
		t.Fatalf("clock evicted the referenced page 1 first")
	}
}

func TestClockAllReferenced(t *testing.T) {
	p := MustNew(Clock, 0)
	for i := model.PageID(1); i <= 3; i++ {
		p.Insert(i)
		p.Touch(i)
	}
	// All bits set: the hand clears them in one lap and evicts someone.
	if _, ok := p.Evict(); !ok {
		t.Fatal("evict should succeed once bits are cleared")
	}
	if p.Len() != 2 {
		t.Fatalf("len: got %d, want 2", p.Len())
	}
}

func TestClockDoubleInsertSetsBit(t *testing.T) {
	p := MustNew(Clock, 0)
	p.Insert(1)
	p.Insert(2)
	p.Insert(1) // sets 1's reference bit
	if p.Len() != 2 {
		t.Fatalf("len: got %d, want 2", p.Len())
	}
	if got, _ := p.Evict(); got != 2 {
		t.Fatalf("got %d, want 2 (1 has its bit set)", got)
	}
}

func TestRandomEvictsEverything(t *testing.T) {
	p := MustNew(Random, 7)
	const n = 100
	for i := model.PageID(0); i < n; i++ {
		p.Insert(i)
	}
	seen := map[model.PageID]bool{}
	for i := 0; i < n; i++ {
		page, ok := p.Evict()
		if !ok {
			t.Fatalf("evict %d failed", i)
		}
		if seen[page] {
			t.Fatalf("page %d evicted twice", page)
		}
		seen[page] = true
	}
	if p.Len() != 0 {
		t.Fatalf("len after draining: %d", p.Len())
	}
}

func TestRandomDeterministicForSeed(t *testing.T) {
	order := func(seed int64) []model.PageID {
		p := MustNew(Random, seed)
		for i := model.PageID(0); i < 20; i++ {
			p.Insert(i)
		}
		var out []model.PageID
		for {
			page, ok := p.Evict()
			if !ok {
				break
			}
			out = append(out, page)
		}
		return out
	}
	a, b := order(5), order(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// opSequence drives a policy with a random operation stream and checks the
// universal invariants: Len matches a reference set, Contains agrees,
// Evict returns a tracked page exactly once.
func opSequence(t *testing.T, kind Kind, seed int64, ops []uint8) {
	t.Helper()
	p := MustNew(kind, seed)
	ref := map[model.PageID]bool{}
	rng := rand.New(rand.NewSource(seed))
	for _, op := range ops {
		page := model.PageID(rng.Intn(30))
		switch op % 3 {
		case 0:
			if !ref[page] {
				p.Insert(page)
				ref[page] = true
			}
		case 1:
			p.Touch(page)
		case 2:
			got, ok := p.Evict()
			if ok != (len(ref) > 0) {
				t.Fatalf("%s: evict ok=%v with %d tracked", kind, ok, len(ref))
			}
			if ok {
				if !ref[got] {
					t.Fatalf("%s: evicted untracked page %d", kind, got)
				}
				delete(ref, got)
			}
		}
		if p.Len() != len(ref) {
			t.Fatalf("%s: len %d, reference %d", kind, p.Len(), len(ref))
		}
		for pg := range ref {
			if !p.Contains(pg) {
				t.Fatalf("%s: lost page %d", kind, pg)
			}
		}
	}
}

// TestPolicyPropertyInvariants fuzzes every policy with random op streams.
func TestPolicyPropertyInvariants(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			f := func(seed int64, ops []uint8) bool {
				opSequence(t, kind, seed, ops)
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLRUMatchesReferenceModel replays a random access stream against both
// the intrusive-list LRU and a simple slice-based reference LRU and
// demands identical eviction decisions.
func TestLRUMatchesReferenceModel(t *testing.T) {
	p := MustNew(LRU, 0)
	var ref []model.PageID // front = LRU
	refTouch := func(page model.PageID) {
		for i, x := range ref {
			if x == page {
				ref = append(append(append([]model.PageID{}, ref[:i]...), ref[i+1:]...), page)
				return
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 5000; step++ {
		page := model.PageID(rng.Intn(40))
		switch rng.Intn(3) {
		case 0:
			if !p.Contains(page) {
				p.Insert(page)
				ref = append(ref, page)
			} else {
				p.Touch(page)
				refTouch(page)
			}
		case 1:
			p.Touch(page)
			if p.Contains(page) {
				refTouch(page)
			}
		case 2:
			if len(ref) > 0 {
				got, ok := p.Evict()
				if !ok || got != ref[0] {
					t.Fatalf("step %d: evicted %d, reference says %d", step, got, ref[0])
				}
				ref = ref[1:]
			}
		}
	}
}
