// Package hbm implements the HBM block store of the model: k slots, each
// holding one page, with residency queries, insertion of fetched blocks,
// and eviction.
//
// Two organisations are provided, matching §2 of the paper:
//
//   - Assoc: fully associative — any page can occupy any slot, and a
//     pluggable replacement policy picks eviction victims. This is the
//     organisation the theory analyses (Property 3 of §3).
//   - DirectMapped: each page can live only in the slot a 2-universal hash
//     assigns it, as in real KNL/Sapphire-Rapids cache-mode HBM; inserting
//     a page displaces the slot's occupant. Corollary 1 shows this costs
//     only constants, which the "mapping" experiment verifies.
package hbm

import (
	"fmt"

	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// Store is the simulator's view of the HBM. Implementations are not safe
// for concurrent use.
type Store interface {
	// Capacity returns k, the number of slots.
	Capacity() int
	// Len returns the number of resident pages.
	Len() int
	// Contains reports whether the page is resident.
	Contains(page model.PageID) bool
	// Touch records an access to a resident page (refreshing it for
	// recency-based policies). Touching a non-resident page is a no-op.
	Touch(page model.PageID)
	// EnsureRoom prepares the store to accept n incoming pages, evicting
	// as needed, and returns the pages evicted. Associative stores evict
	// max(0, n - free) victims by the replacement policy (the model's
	// step 3); direct-mapped stores evict at insert time instead and
	// always return nil here.
	//
	// Aliasing contract: the returned slice may alias an internal
	// scratch buffer that the next EnsureRoom call on the same store
	// overwrites. Callers must consume it (or copy it) before calling
	// EnsureRoom again and must not retain it;
	// TestEnsureRoomScratchAliasing pins this behaviour.
	EnsureRoom(n int) []model.PageID
	// Insert makes a fetched page resident. displaced reports a page that
	// the insert evicted (direct-mapped slot conflicts); associative
	// stores never displace — callers must EnsureRoom first, and an
	// insert into a full associative store is an error.
	Insert(page model.PageID) (displaced model.PageID, wasDisplaced bool, err error)
	// Kind describes the organisation for reports.
	Kind() string
}

// BatchToucher is an optional Store capability: TouchAll(pages) must be
// behaviourally identical to touching each page in order. All four store
// implementations provide it; the simulator's fast-forward path uses it
// to replay a contention-free stretch's recency updates in one call.
type BatchToucher interface {
	TouchAll(pages []model.PageID)
}

// Assoc is the fully-associative store.
type Assoc struct {
	capacity int
	policy   replacement.Policy
	scratch  []model.PageID

	// batch caches the policy's BatchToucher assertion (nil when the
	// policy has none); checked lazily on the first TouchAll.
	batch        replacement.BatchToucher
	batchChecked bool
}

// NewAssoc returns an empty fully-associative store with capacity k slots.
func NewAssoc(k int, policy replacement.Policy) (*Assoc, error) {
	if k <= 0 {
		return nil, fmt.Errorf("hbm: capacity must be positive, got %d", k)
	}
	if policy == nil {
		return nil, fmt.Errorf("hbm: replacement policy must not be nil")
	}
	if policy.Len() != 0 {
		return nil, fmt.Errorf("hbm: replacement policy already tracks %d pages", policy.Len())
	}
	return &Assoc{capacity: k, policy: policy}, nil
}

// Capacity returns k.
func (s *Assoc) Capacity() int { return s.capacity }

// Len returns the number of resident pages.
func (s *Assoc) Len() int { return s.policy.Len() }

// Free returns the number of empty slots.
func (s *Assoc) Free() int { return s.capacity - s.policy.Len() }

// Contains reports whether the page is resident.
func (s *Assoc) Contains(page model.PageID) bool { return s.policy.Contains(page) }

// Touch refreshes a resident page.
func (s *Assoc) Touch(page model.PageID) { s.policy.Touch(page) }

// TouchAll refreshes the pages in order, delegating to the policy's
// batched entry point when it has one (all dense policies do) and
// falling back to a Touch loop otherwise.
func (s *Assoc) TouchAll(pages []model.PageID) {
	if !s.batchChecked {
		s.batch, _ = s.policy.(replacement.BatchToucher)
		s.batchChecked = true
	}
	if s.batch != nil {
		s.batch.TouchAll(pages)
		return
	}
	for _, p := range pages {
		s.policy.Touch(p)
	}
}

// EnsureRoom evicts max(0, n - free) victims chosen by the replacement
// policy and returns them. The returned slice aliases the store's
// scratch buffer and is invalidated (overwritten) by the next
// EnsureRoom call — copy it if it must outlive that.
func (s *Assoc) EnsureRoom(n int) []model.PageID {
	s.scratch = s.scratch[:0]
	for need := n - s.Free(); need > 0; need-- {
		page, ok := s.policy.Evict()
		if !ok {
			break
		}
		s.scratch = append(s.scratch, page)
	}
	return s.scratch
}

// Insert makes a fetched page resident; the store must have a free slot.
func (s *Assoc) Insert(page model.PageID) (model.PageID, bool, error) {
	if s.policy.Contains(page) {
		return 0, false, fmt.Errorf("hbm: page %d already resident", page)
	}
	if s.Free() == 0 {
		return 0, false, fmt.Errorf("hbm: store full (capacity %d), cannot insert page %d", s.capacity, page)
	}
	s.policy.Insert(page)
	return 0, false, nil
}

// Evict removes and returns the replacement policy's victim; ok is false
// when the store is empty.
func (s *Assoc) Evict() (model.PageID, bool) { return s.policy.Evict() }

// Remove invalidates a specific resident page, reporting whether it was
// resident.
func (s *Assoc) Remove(page model.PageID) bool {
	if !s.policy.Contains(page) {
		return false
	}
	s.policy.Remove(page)
	return true
}

// Recency returns the policy's recency list (head peek and ordered
// relink) when it keeps one — the dense LRU and FIFO lists do — and nil
// otherwise.
func (s *Assoc) Recency() replacement.Recency {
	r, _ := s.policy.(replacement.Recency)
	return r
}

// PolicyKind returns the kind of the underlying replacement policy.
func (s *Assoc) PolicyKind() replacement.Kind { return s.policy.Kind() }

// Kind describes the organisation.
func (s *Assoc) Kind() string { return fmt.Sprintf("associative/%s", s.policy.Kind()) }
