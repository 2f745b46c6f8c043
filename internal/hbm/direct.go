package hbm

import (
	"fmt"
	"math/rand"

	"hbmsim/internal/directmap"
	"hbmsim/internal/model"
)

// DirectMapped is the hardware-realistic store: page p may only occupy
// slot h(p) for a fixed 2-universal hash h, so inserting a page displaces
// whatever occupied its slot. There is no replacement policy — conflicts
// decide evictions, exactly as in KNL cache mode. It hashes the page on
// every access and backs core.RunReference; core.New runs the
// DenseDirectMapped store, which makes the same decisions.
type DirectMapped struct {
	slots []model.PageID
	full  []bool
	hash  directmap.UniversalHash
}

// NewDirectMapped returns an empty direct-mapped store of k slots with a
// hash drawn from the 2-universal family using the seed.
func NewDirectMapped(k int, seed int64) (*DirectMapped, error) {
	if k <= 0 {
		return nil, fmt.Errorf("hbm: capacity must be positive, got %d", k)
	}
	h, err := directmap.NewUniversalHash(uint64(k), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return &DirectMapped{
		slots: make([]model.PageID, k),
		full:  make([]bool, k),
		hash:  h,
	}, nil
}

// slot returns the unique slot of the page.
func (s *DirectMapped) slot(page model.PageID) uint64 { return s.hash.Hash(uint64(page)) }

// Contains reports whether the page is resident (in its slot).
func (s *DirectMapped) Contains(page model.PageID) bool {
	i := s.slot(page)
	return s.full[i] && s.slots[i] == page
}

// Touch is a no-op: direct-mapped slots have no recency state.
func (s *DirectMapped) Touch(model.PageID) {}

// EnsureRoom is a no-op: conflicts evict at insert time.
func (s *DirectMapped) EnsureRoom(int) []model.PageID { return nil }

// Insert places the page in its slot, displacing the occupant if any.
func (s *DirectMapped) Insert(page model.PageID) (model.PageID, bool, error) {
	i := s.slot(page)
	if s.full[i] {
		if s.slots[i] == page {
			return 0, false, fmt.Errorf("hbm: page %d already resident", page)
		}
		old := s.slots[i]
		s.slots[i] = page
		return old, true, nil
	}
	s.slots[i] = page
	s.full[i] = true
	return 0, false, nil
}
