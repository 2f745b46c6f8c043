package hbm

import (
	"math/rand"
	"testing"

	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// TestEnsureRoomScratchAliasing pins the documented aliasing contract of
// Store.EnsureRoom: the returned slice aliases a per-store scratch
// buffer, so the next EnsureRoom call overwrites it. A caller that
// silently retained the slice would observe its contents change — this
// test is the regression tripwire for that contract.
func TestEnsureRoomScratchAliasing(t *testing.T) {
	s := newAssoc(t, 4)
	for p := model.PageID(1); p <= 4; p++ {
		mustInsert(t, s, p)
	}

	first := s.EnsureRoom(2) // LRU evicts 1, 2
	if len(first) != 2 || first[0] != 1 || first[1] != 2 {
		t.Fatalf("first EnsureRoom: got %v, want [1 2]", first)
	}
	retained := first // what a buggy caller would hold on to
	kept := append([]model.PageID(nil), first...)

	mustInsert(t, s, 5)
	mustInsert(t, s, 6)
	second := s.EnsureRoom(2) // LRU evicts 3, 4
	if len(second) != 2 || second[0] != 3 || second[1] != 4 {
		t.Fatalf("second EnsureRoom: got %v, want [3 4]", second)
	}

	// Both calls handed out the same backing array...
	if &retained[0] != &second[0] {
		t.Fatalf("EnsureRoom no longer reuses its scratch buffer; update the documented contract")
	}
	// ...so the retained slice was clobbered, while the copy survived.
	if retained[0] != 3 || retained[1] != 4 {
		t.Fatalf("retained slice reads %v; the aliasing contract changed", retained)
	}
	if kept[0] != 1 || kept[1] != 2 {
		t.Fatalf("copied slice was corrupted: %v", kept)
	}
}

// TestEnsureRoomScratchGrows checks that a larger later request still
// returns every victim even after earlier calls sized the scratch small.
func TestEnsureRoomScratchGrows(t *testing.T) {
	s := newAssoc(t, 8)
	for p := model.PageID(1); p <= 8; p++ {
		mustInsert(t, s, p)
	}
	if got := s.EnsureRoom(1); len(got) != 1 {
		t.Fatalf("EnsureRoom(1): %v", got)
	}
	got := s.EnsureRoom(8)
	if len(got) != 7 { // 1 slot already free
		t.Fatalf("EnsureRoom(8) evicted %d pages, want 7", len(got))
	}
}

// TestDenseDirectMappedMatchesSparse drives a DenseDirectMapped store and
// the map-free-but-hash-per-access DirectMapped reference through the
// same operation sequence and requires identical residency and
// displacement at every step — for both an identity compaction and a
// shuffled (non-identity) origOf table. Slots must agree because the
// dense store hashes the original IDs at construction.
func TestDenseDirectMappedMatchesSparse(t *testing.T) {
	const k, universe = 16, 64
	for _, shuffled := range []bool{false, true} {
		var origOf []model.PageID
		orig := func(d model.PageID) model.PageID { return d }
		if shuffled {
			perm := rand.New(rand.NewSource(3)).Perm(universe)
			origOf = make([]model.PageID, universe)
			for d, o := range perm {
				origOf[d] = model.PageID(o * 977) // sparse originals
			}
			orig = func(d model.PageID) model.PageID { return origOf[d] }
		}

		dense, err := NewDenseDirectMapped(k, 42, universe, origOf)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := NewDirectMapped(k, 42)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(7))
		for step := 0; step < 2000; step++ {
			d := model.PageID(rng.Intn(universe))
			o := orig(d)
			if dense.Contains(d) != sparse.Contains(o) {
				t.Fatalf("shuffled=%v step %d: Contains(%d) diverges", shuffled, step, d)
			}
			if dense.Contains(d) {
				dense.Touch(d)
				sparse.Touch(o)
				continue
			}
			dv, ddisp, derr := dense.Insert(d)
			sv, sdisp, serr := sparse.Insert(o)
			if (derr == nil) != (serr == nil) || ddisp != sdisp {
				t.Fatalf("shuffled=%v step %d: Insert(%d) diverges: (%v,%v) vs (%v,%v)",
					shuffled, step, d, ddisp, derr, sdisp, serr)
			}
			if ddisp && orig(dv) != sv {
				t.Fatalf("shuffled=%v step %d: displaced %d (orig %d), reference displaced %d",
					shuffled, step, dv, orig(dv), sv)
			}
		}
	}
}

// TestDenseDirectMappedErrors covers the constructor's validation and the
// duplicate-insert error path.
func TestDenseDirectMappedErrors(t *testing.T) {
	if _, err := NewDenseDirectMapped(0, 1, 4, nil); err == nil {
		t.Fatal("k=0 should be rejected")
	}
	if _, err := NewDenseDirectMapped(4, 1, -1, nil); err == nil {
		t.Fatal("negative universe should be rejected")
	}
	if _, err := NewDenseDirectMapped(4, 1, 4, make([]model.PageID, 3)); err == nil {
		t.Fatal("origOf/universe length mismatch should be rejected")
	}
	s, err := NewDenseDirectMapped(4, 1, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, s, 3)
	if _, _, err := s.Insert(3); err == nil {
		t.Fatal("duplicate insert should error")
	}
	if got := s.EnsureRoom(4); got != nil {
		t.Fatalf("EnsureRoom should be a no-op, got %v", got)
	}
}

// TestAssocWithDensePolicy runs the associative store over a dense LRU
// policy, checking the Store contract end to end on compacted IDs.
func TestAssocWithDensePolicy(t *testing.T) {
	pol, err := replacement.NewDense(replacement.LRU, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewAssoc(3, pol)
	if err != nil {
		t.Fatal(err)
	}
	for p := model.PageID(0); p < 3; p++ {
		mustInsert(t, s, p)
	}
	s.Touch(0) // refresh: eviction order becomes 1, 2, 0
	got := s.EnsureRoom(3)
	want := []model.PageID{1, 2, 0}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("EnsureRoom over dense LRU: got %v, want %v", got, want)
	}
}
