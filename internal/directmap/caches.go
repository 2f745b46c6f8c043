package directmap

import (
	"fmt"
	"math/rand"

	"hbmsim/internal/model"
)

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
