package hbm

import (
	"fmt"
	"math/rand"

	"hbmsim/internal/directmap"
	"hbmsim/internal/model"
)

// DenseDirectMapped is the direct-mapped store for a page universe that
// has been compacted to [0, universe): each page's slot is precomputed
// once at construction into a flat slotOf table, so Contains and Insert
// — the tick-path operations — are two array reads instead of a
// 128-bit universal-hash evaluation per access.
//
// Crucially, the slot of dense page d is the hash of its *original*
// PageID (via origOf), not of d itself: slot conflicts — and therefore
// evictions, makespans, and every downstream metric — are bit-identical
// to NewDirectMapped on the original page IDs (as core.RunReference runs
// it) with the same seed. A nil origOf means the compaction was the
// identity.
type DenseDirectMapped struct {
	slots  []int32  // slot -> resident dense page, or -1 when empty
	slotOf []uint32 // dense page -> its unique slot
	n      int      // occupied slots, the snapshot's pair count
}

// NewDenseDirectMapped returns an empty direct-mapped store of k slots
// for a compacted universe, with the slot hash drawn from the same
// 2-universal family (and seed consumption) as NewDirectMapped.
func NewDenseDirectMapped(k int, seed int64, universe int, origOf []model.PageID) (*DenseDirectMapped, error) {
	if k <= 0 {
		return nil, fmt.Errorf("hbm: capacity must be positive, got %d", k)
	}
	if universe < 0 {
		return nil, fmt.Errorf("hbm: universe must be >= 0, got %d", universe)
	}
	if origOf != nil && len(origOf) != universe {
		return nil, fmt.Errorf("hbm: origOf has %d entries for universe %d", len(origOf), universe)
	}
	h, err := directmap.NewUniversalHash(uint64(k), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	s := &DenseDirectMapped{
		slots:  make([]int32, k),
		slotOf: make([]uint32, universe),
	}
	for i := range s.slots {
		s.slots[i] = -1
	}
	for d := range s.slotOf {
		op := model.PageID(d)
		if origOf != nil {
			op = origOf[d]
		}
		s.slotOf[d] = uint32(h.Hash(uint64(op)))
	}
	return s, nil
}

// Contains reports whether the page is resident (in its slot).
func (s *DenseDirectMapped) Contains(page model.PageID) bool {
	return s.slots[s.slotOf[page]] == int32(page)
}

// Touch is a no-op: direct-mapped slots have no recency state.
func (s *DenseDirectMapped) Touch(model.PageID) {}

// EnsureRoom is a no-op: conflicts evict at insert time.
func (s *DenseDirectMapped) EnsureRoom(int) []model.PageID { return nil }

// Insert places the page in its slot, displacing the occupant if any.
func (s *DenseDirectMapped) Insert(page model.PageID) (model.PageID, bool, error) {
	i := s.slotOf[page]
	old := s.slots[i]
	if old == int32(page) {
		return 0, false, fmt.Errorf("hbm: page %d already resident", page)
	}
	s.slots[i] = int32(page)
	if old >= 0 {
		return model.PageID(old), true, nil
	}
	s.n++
	return 0, false, nil
}
