package arbiter

import (
	"testing"

	"hbmsim/internal/model"
)

func req(core model.CoreID, seq uint64) model.Request {
	return model.Request{Core: core, Page: model.PageID(1000 + seq), Seq: seq}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(FIFO, 0, 0); err == nil {
		t.Fatal("p=0 should be rejected")
	}
	if _, err := New("bogus", 4, 0); err == nil {
		t.Fatal("unknown kind should be rejected")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad kind should panic")
		}
	}()
	MustNew("bogus", 4, 0)
}

func TestKindsConstructAll(t *testing.T) {
	for _, k := range Kinds() {
		a, err := New(k, 8, 1)
		if err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
		if a.Len() != 0 {
			t.Errorf("%s: new arbiter not empty", k)
		}
	}
}

func TestFIFOOrder(t *testing.T) {
	a := MustNew(FIFO, 4, 0)
	for seq := uint64(1); seq <= 5; seq++ {
		a.Push(req(model.CoreID(seq%4), seq))
	}
	for seq := uint64(1); seq <= 5; seq++ {
		r, ok := a.Pop()
		if !ok || r.Seq != seq {
			t.Fatalf("pop: got seq %d ok=%v, want %d", r.Seq, ok, seq)
		}
	}
	if _, ok := a.Pop(); ok {
		t.Fatal("pop from empty should fail")
	}
}

func TestFIFOGrowWraparound(t *testing.T) {
	a := MustNew(FIFO, 4, 0)
	// Interleave pushes and pops so head wraps, then force growth.
	seq := uint64(0)
	for i := 0; i < 10; i++ {
		seq++
		a.Push(req(0, seq))
	}
	for i := 0; i < 7; i++ {
		a.Pop()
	}
	for i := 0; i < 40; i++ {
		seq++
		a.Push(req(0, seq))
	}
	want := uint64(8)
	for a.Len() > 0 {
		r, _ := a.Pop()
		if r.Seq != want {
			t.Fatalf("after grow: got seq %d, want %d", r.Seq, want)
		}
		want++
	}
	if want != seq+1 {
		t.Fatalf("drained up to %d, want %d", want-1, seq)
	}
}

func TestPriorityIdentityOrder(t *testing.T) {
	a := MustNew(Priority, 8, 0)
	// Push in reverse core order; pops must follow core rank.
	for c := 7; c >= 0; c-- {
		a.Push(req(model.CoreID(c), uint64(10-c)))
	}
	for c := 0; c < 8; c++ {
		r, ok := a.Pop()
		if !ok || r.Core != model.CoreID(c) {
			t.Fatalf("pop %d: got core %d, want %d", c, r.Core, c)
		}
	}
}

// TestPrioritySharedRankPanics pins the arbiter's contract: ranks are a
// permutation and a core has one request queued, so two requests never
// share a rank, and a Push that would is refused with a panic rather
// than losing either request.
func TestPrioritySharedRankPanics(t *testing.T) {
	a := MustNew(Priority, 2, 0)
	a.Push(req(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("a second request at rank 1 was accepted")
		}
	}()
	a.Push(req(1, 2))
}

func TestPriorityUpdateReheaps(t *testing.T) {
	a := MustNew(Priority, 4, 0)
	for c := 0; c < 4; c++ {
		a.Push(req(model.CoreID(c), uint64(c+1)))
	}
	// Reverse the pecking order: core 3 becomes rank 0.
	a.UpdatePriorities([]int32{3, 2, 1, 0})
	for want := 3; want >= 0; want-- {
		r, ok := a.Pop()
		if !ok || r.Core != model.CoreID(want) {
			t.Fatalf("pop: got core %d, want %d", r.Core, want)
		}
	}
}

func TestPriorityInterleavedPushPop(t *testing.T) {
	a := MustNew(Priority, 8, 0)
	a.Push(req(5, 1))
	a.Push(req(2, 2))
	if r, _ := a.Pop(); r.Core != 2 {
		t.Fatalf("got core %d, want 2", r.Core)
	}
	a.Push(req(0, 3))
	a.Push(req(7, 4))
	if r, _ := a.Pop(); r.Core != 0 {
		t.Fatalf("got core %d, want 0", r.Core)
	}
	if r, _ := a.Pop(); r.Core != 5 {
		t.Fatalf("got core %d, want 5", r.Core)
	}
	if r, _ := a.Pop(); r.Core != 7 {
		t.Fatalf("got core %d, want 7", r.Core)
	}
}

func TestRandomPopsEachExactlyOnce(t *testing.T) {
	a := MustNew(Random, 16, 9)
	for c := 0; c < 16; c++ {
		a.Push(req(model.CoreID(c), uint64(c+1)))
	}
	seen := map[model.CoreID]bool{}
	for i := 0; i < 16; i++ {
		r, ok := a.Pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if seen[r.Core] {
			t.Fatalf("core %d popped twice", r.Core)
		}
		seen[r.Core] = true
	}
	if _, ok := a.Pop(); ok {
		t.Fatal("pop from empty should fail")
	}
}

func TestRandomSeedDeterminism(t *testing.T) {
	run := func(seed int64) []model.CoreID {
		a := MustNew(Random, 8, seed)
		for c := 0; c < 8; c++ {
			a.Push(req(model.CoreID(c), uint64(c+1)))
		}
		var out []model.CoreID
		for {
			r, ok := a.Pop()
			if !ok {
				return out
			}
			out = append(out, r.Core)
		}
	}
	a, b := run(4), run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}
