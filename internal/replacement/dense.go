package replacement

import (
	"fmt"
	"math/rand"

	"hbmsim/internal/detrand"
	"hbmsim/internal/model"
)

// NewDense constructs a policy for a page universe that has been
// compacted to the dense range [0, universe): every residency index and
// recency structure is a flat slice indexed directly by page, so the
// tick-path operations (Contains/Touch/Insert/Evict) perform no map
// lookups and no allocations at steady state. Callers must only pass
// pages in [0, universe) — internal/core guarantees that via its
// compaction pass. Dense policies are behaviourally bit-identical to
// their map-based counterparts from New (replacement decisions depend
// only on page identity, never on page value); the differential tests in
// dense_test.go and internal/core pin that.
func NewDense(kind Kind, universe int, seed int64) (Policy, error) {
	if universe < 0 {
		return nil, fmt.Errorf("replacement: universe must be >= 0, got %d", universe)
	}
	switch kind {
	case LRU:
		return newDenseList(true, universe), nil
	case FIFO:
		return newDenseList(false, universe), nil
	case Clock:
		return newDenseClock(universe), nil
	case Random:
		return newDenseRandom(universe, seed), nil
	default:
		return nil, fmt.Errorf("replacement: unknown policy kind %q", kind)
	}
}

// denseList is listPolicy over a dense page universe: the linked-list
// node of page p *is* index p, so there is no slab, no free list, and no
// page->node map — just prev/next/resident arrays.
type denseList struct {
	touchMoves bool

	prev     []int32
	next     []int32
	resident []bool
	head     int32 // victim end; -1 when empty
	tail     int32 // MRU end; -1 when empty
	n        int
}

func newDenseList(touchMoves bool, universe int) *denseList {
	return &denseList{
		touchMoves: touchMoves,
		prev:       make([]int32, universe),
		next:       make([]int32, universe),
		resident:   make([]bool, universe),
		head:       nilNode,
		tail:       nilNode,
	}
}

func (l *denseList) Len() int { return l.n }

func (l *denseList) Contains(page model.PageID) bool { return l.resident[page] }

// pushBack links page i at the tail (MRU end).
func (l *denseList) pushBack(i int32) {
	l.prev[i] = l.tail
	l.next[i] = nilNode
	if l.tail != nilNode {
		l.next[l.tail] = i
	} else {
		l.head = i
	}
	l.tail = i
}

// unlink detaches page i from the list.
func (l *denseList) unlink(i int32) {
	p, nx := l.prev[i], l.next[i]
	if p != nilNode {
		l.next[p] = nx
	} else {
		l.head = nx
	}
	if nx != nilNode {
		l.prev[nx] = p
	} else {
		l.tail = p
	}
}

func (l *denseList) Insert(page model.PageID) {
	i := int32(page)
	if l.resident[i] {
		// Insert of an already-tracked page is a contract violation by the
		// caller; treat it as a Touch to stay safe (as listPolicy does).
		l.Touch(page)
		return
	}
	l.resident[i] = true
	l.n++
	l.pushBack(i)
}

func (l *denseList) Touch(page model.PageID) {
	if !l.touchMoves {
		return
	}
	i := int32(page)
	if !l.resident[i] || l.tail == i {
		return
	}
	l.unlink(i)
	l.pushBack(i)
}

func (l *denseList) Evict() (model.PageID, bool) {
	if l.head == nilNode {
		return 0, false
	}
	i := l.head
	l.unlink(i)
	l.resident[i] = false
	l.n--
	return model.PageID(i), true
}

// denseClock is clockPolicy over a dense page universe: the circular
// sweep list is held in prev/next arrays indexed by page, with the
// reference bits in a flat bool slice.
type denseClock struct {
	prev     []int32
	next     []int32
	ref      []bool
	resident []bool
	hand     int32 // current sweep position; -1 when empty
	n        int
}

func newDenseClock(universe int) *denseClock {
	return &denseClock{
		prev:     make([]int32, universe),
		next:     make([]int32, universe),
		ref:      make([]bool, universe),
		resident: make([]bool, universe),
		hand:     nilNode,
	}
}

func (c *denseClock) Len() int { return c.n }

func (c *denseClock) Contains(page model.PageID) bool { return c.resident[page] }

func (c *denseClock) Insert(page model.PageID) {
	i := int32(page)
	if c.resident[i] {
		c.ref[i] = true
		return
	}
	c.resident[i] = true
	c.ref[i] = false
	c.n++
	if c.hand == nilNode {
		c.prev[i] = i
		c.next[i] = i
		c.hand = i
		return
	}
	// Insert just behind the hand, i.e. at the "end" of the sweep order,
	// mirroring a freshly loaded page in a real CLOCK.
	prev := c.prev[c.hand]
	c.prev[i] = prev
	c.next[i] = c.hand
	c.next[prev] = i
	c.prev[c.hand] = i
}

func (c *denseClock) Touch(page model.PageID) {
	if c.resident[page] {
		c.ref[page] = true
	}
}

func (c *denseClock) Evict() (model.PageID, bool) {
	if c.hand == nilNode {
		return 0, false
	}
	for {
		i := c.hand
		if c.ref[i] {
			c.ref[i] = false
			c.hand = c.next[i]
			continue
		}
		c.hand = c.next[i]
		c.detach(i)
		return model.PageID(i), true
	}
}

// detach removes page i, which the hand has just passed, from the
// circular list.
func (c *denseClock) detach(i int32) {
	if c.next[i] == i {
		// last page
		c.hand = nilNode
	} else {
		prev, next := c.prev[i], c.next[i]
		c.next[prev] = next
		c.prev[next] = prev
	}
	c.resident[i] = false
	c.n--
}

// denseRandom is randomPolicy over a dense page universe: the page->index
// map becomes a flat int32 slice (-1 when the page is absent). The rng
// consumption is identical to randomPolicy's, so eviction sequences
// match for the same seed.
type denseRandom struct {
	pages []model.PageID
	index []int32 // position in pages, or -1 when absent
	src   *detrand.Source
	rng   *rand.Rand
}

func newDenseRandom(universe int, seed int64) *denseRandom {
	idx := make([]int32, universe)
	for i := range idx {
		idx[i] = -1
	}
	src := detrand.NewSource(seed)
	return &denseRandom{
		index: idx,
		src:   src,
		rng:   rand.New(src),
	}
}

func (r *denseRandom) Len() int { return len(r.pages) }

func (r *denseRandom) Contains(page model.PageID) bool { return r.index[page] >= 0 }

func (r *denseRandom) Insert(page model.PageID) {
	if r.index[page] >= 0 {
		return
	}
	r.index[page] = int32(len(r.pages))
	r.pages = append(r.pages, page)
}

func (r *denseRandom) Touch(model.PageID) {}

func (r *denseRandom) Evict() (model.PageID, bool) {
	if len(r.pages) == 0 {
		return 0, false
	}
	i := r.rng.Intn(len(r.pages))
	page := r.pages[i]
	r.removeAt(page, int32(i))
	return page, true
}

func (r *denseRandom) removeAt(page model.PageID, i int32) {
	last := int32(len(r.pages) - 1)
	if i != last {
		moved := r.pages[last]
		r.pages[i] = moved
		r.index[moved] = i
	}
	r.pages = r.pages[:last]
	r.index[page] = -1
}
