package hbm

import (
	"testing"

	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

func newAssoc(t *testing.T, k int) *Assoc {
	t.Helper()
	s, err := NewAssoc(k, replacement.MustNew(replacement.LRU, 0))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustInsert(t *testing.T, s Store, page model.PageID) {
	t.Helper()
	if _, _, err := s.Insert(page); err != nil {
		t.Fatalf("insert %d: %v", page, err)
	}
}

func TestNewAssocErrors(t *testing.T) {
	if _, err := NewAssoc(0, replacement.MustNew(replacement.LRU, 0)); err == nil {
		t.Fatal("k=0 should be rejected")
	}
	if _, err := NewAssoc(-1, replacement.MustNew(replacement.LRU, 0)); err == nil {
		t.Fatal("negative k should be rejected")
	}
	if _, err := NewAssoc(4, nil); err == nil {
		t.Fatal("nil policy should be rejected")
	}
	used := replacement.MustNew(replacement.LRU, 0)
	used.Insert(1)
	if _, err := NewAssoc(4, used); err == nil {
		t.Fatal("non-empty policy should be rejected")
	}
}

func TestAssocInsertContainsEvict(t *testing.T) {
	s := newAssoc(t, 2)
	if s.Free() != 2 {
		t.Fatalf("fresh store: free=%d", s.Free())
	}
	mustInsert(t, s, 10)
	mustInsert(t, s, 20)
	if !s.Contains(10) || !s.Contains(20) || s.Contains(30) {
		t.Fatal("containment wrong after inserts")
	}
	if s.Free() != 0 {
		t.Fatalf("free: got %d, want 0", s.Free())
	}
	if _, _, err := s.Insert(30); err == nil {
		t.Fatal("insert into full store should fail")
	}
	if _, _, err := s.Insert(10); err == nil {
		t.Fatal("inserting a resident page should fail")
	}
	page, ok := s.Evict()
	if !ok || page != 10 {
		t.Fatalf("evict: got %d/%v, want 10 (LRU)", page, ok)
	}
}

func TestAssocEnsureRoom(t *testing.T) {
	s := newAssoc(t, 3)
	mustInsert(t, s, 1)
	mustInsert(t, s, 2)
	mustInsert(t, s, 3)
	// Room for 2 incoming pages: evict 2 LRU victims.
	ev := s.EnsureRoom(2)
	if len(ev) != 2 || ev[0] != 1 || ev[1] != 2 {
		t.Fatalf("EnsureRoom evicted %v, want [1 2]", ev)
	}
	if s.Free() != 2 {
		t.Fatalf("free after EnsureRoom: %d", s.Free())
	}
	// Already enough room: no evictions.
	if ev := s.EnsureRoom(2); len(ev) != 0 {
		t.Fatalf("unnecessary evictions: %v", ev)
	}
	// Request beyond capacity: evicts everything, then stops.
	mustInsert(t, s, 4)
	if ev := s.EnsureRoom(5); len(ev) != 2 {
		t.Fatalf("EnsureRoom(5) on 2 resident: evicted %v", ev)
	}
}

func TestAssocTouchChangesVictim(t *testing.T) {
	s := newAssoc(t, 2)
	mustInsert(t, s, 1)
	mustInsert(t, s, 2)
	s.Touch(1)
	if page, _ := s.Evict(); page != 2 {
		t.Fatalf("evict after touch: got %d, want 2", page)
	}
}

func TestAssocEvictEmpty(t *testing.T) {
	s := newAssoc(t, 1)
	if _, ok := s.Evict(); ok {
		t.Fatal("evict from empty store should fail")
	}
}

func TestDirectMappedBasics(t *testing.T) {
	s, err := NewDirectMapped(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, s, 42)
	if !s.Contains(42) || s.Contains(43) {
		t.Fatal("containment wrong")
	}
	if _, _, err := s.Insert(42); err == nil {
		t.Fatal("re-inserting a resident page should fail")
	}
	if ev := s.EnsureRoom(100); ev != nil {
		t.Fatalf("direct-mapped EnsureRoom should be a no-op, got %v", ev)
	}
	s.Touch(42) // no-op, must not panic
}

func TestDirectMappedConflictDisplaces(t *testing.T) {
	s, err := NewDirectMapped(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, s, 1)
	// Find a page colliding with page 1's slot.
	var collider model.PageID
	for p := model.PageID(2); ; p++ {
		if s.slot(p) == s.slot(1) {
			collider = p
			break
		}
	}
	displaced, was, err := s.Insert(collider)
	if err != nil {
		t.Fatal(err)
	}
	if !was || displaced != 1 {
		t.Fatalf("displacement: got %d/%v, want 1/true", displaced, was)
	}
	if s.Contains(1) || !s.Contains(collider) {
		t.Fatal("slot contents wrong after displacement")
	}
}

func TestDirectMappedNoFalseHits(t *testing.T) {
	s, err := NewDirectMapped(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, s, 100)
	for p := model.PageID(0); p < 200; p++ {
		if p != 100 && s.Contains(p) {
			t.Fatalf("false residency for page %d", p)
		}
	}
}

func TestDirectMappedErrors(t *testing.T) {
	if _, err := NewDirectMapped(0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestDirectMappedSeedChangesHash(t *testing.T) {
	countCollisions := func(seed int64) int {
		s, err := NewDirectMapped(64, seed)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for p := model.PageID(0); p < 256; p++ {
			if _, was, _ := s.Insert(p); was {
				n++
			}
		}
		return n
	}
	// Different seeds give different hash functions; with 256 pages into
	// 64 slots both see many collisions, but the exact counts almost
	// surely differ.
	if countCollisions(1) == 0 {
		t.Fatal("no collisions with 4x oversubscription is impossible")
	}
}

// Interface conformance.
var (
	_ Store = (*Assoc)(nil)
	_ Store = (*DirectMapped)(nil)
)
