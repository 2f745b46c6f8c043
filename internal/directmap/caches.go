package directmap

import (
	"fmt"
	"math/rand"

	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// Assoc is a fully-associative cache of k pages with a pluggable
// replacement policy: the idealised HBM the theory analyses.
type Assoc struct {
	k      int
	policy replacement.Policy
	hits   uint64
	misses uint64
}

// NewAssoc returns an empty fully-associative cache.
func NewAssoc(k int, kind replacement.Kind, seed int64) (*Assoc, error) {
	if k <= 0 {
		return nil, fmt.Errorf("directmap: capacity must be positive, got %d", k)
	}
	pol, err := replacement.New(kind, seed)
	if err != nil {
		return nil, err
	}
	return &Assoc{k: k, policy: pol}, nil
}

// NewAssocDense returns an empty fully-associative cache whose
// replacement policy indexes flat slices instead of hashing page IDs —
// no map operations on the Access path. Callers must renumber their
// trace into the dense range [0, universe) first (see trace.Renumber);
// replacement decisions depend only on page identity, so the dense
// cache's hit/miss sequence is bit-identical to NewAssoc's on the
// original IDs.
func NewAssocDense(k int, kind replacement.Kind, seed int64, universe int) (*Assoc, error) {
	if k <= 0 {
		return nil, fmt.Errorf("directmap: capacity must be positive, got %d", k)
	}
	pol, err := replacement.NewDense(kind, universe, seed)
	if err != nil {
		return nil, err
	}
	return &Assoc{k: k, policy: pol}, nil
}

// Access touches one page and reports whether it hit.
func (a *Assoc) Access(page model.PageID) bool {
	if a.policy.Contains(page) {
		a.policy.Touch(page)
		a.hits++
		return true
	}
	a.misses++
	if a.policy.Len() == a.k {
		a.policy.Evict()
	}
	a.policy.Insert(page)
	return false
}

// Hits returns the hit count. Misses returns the miss count.
func (a *Assoc) Hits() uint64   { return a.hits }
func (a *Assoc) Misses() uint64 { return a.misses }

// Cache is a plain direct-mapped cache of k slots: page p lives only in
// slot h(p), so two pages with colliding slots evict each other — the
// hardware reality of KNL-style HBM caches.
type Cache struct {
	slots []model.PageID
	full  []bool
	hash  UniversalHash
	hits  uint64
	miss  uint64
}

// NewCache returns an empty direct-mapped cache of k slots whose
// address-to-slot mapping is drawn from the 2-universal family.
func NewCache(k int, seed int64) (*Cache, error) {
	if k <= 0 {
		return nil, fmt.Errorf("directmap: capacity must be positive, got %d", k)
	}
	rng := rand.New(rand.NewSource(seed))
	h, err := NewUniversalHash(uint64(k), rng)
	if err != nil {
		return nil, err
	}
	return &Cache{slots: make([]model.PageID, k), full: make([]bool, k), hash: h}, nil
}

// Access touches one page and reports whether it hit. On a miss the page
// replaces whatever occupied its slot.
func (c *Cache) Access(page model.PageID) bool {
	s := c.hash.Hash(uint64(page))
	if c.full[s] && c.slots[s] == page {
		c.hits++
		return true
	}
	c.miss++
	c.slots[s] = page
	c.full[s] = true
	return false
}

// Hits returns the hit count. Misses returns the miss count.
func (c *Cache) Hits() uint64   { return c.hits }
func (c *Cache) Misses() uint64 { return c.miss }
