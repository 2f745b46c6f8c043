package replacement

import "hbmsim/internal/model"

// clockPolicy implements the CLOCK (second-chance) approximation of LRU:
// pages sit on a circular list with a reference bit; the hand sweeps,
// clearing set bits and evicting the first page found with its bit clear.
//
// The circular list reuses the intrusive-node technique from listPolicy but
// is self-contained to keep the hand logic readable.
type clockPolicy struct {
	nodes []clockNode
	free  []int32
	index map[model.PageID]int32
	hand  int32 // current sweep position; -1 when empty
}

type clockNode struct {
	page model.PageID
	prev int32
	next int32
	ref  bool
}

func newClock() *clockPolicy {
	return &clockPolicy{index: make(map[model.PageID]int32), hand: nilNode}
}

func (c *clockPolicy) Len() int { return len(c.index) }

func (c *clockPolicy) Contains(page model.PageID) bool {
	_, ok := c.index[page]
	return ok
}

func (c *clockPolicy) alloc(page model.PageID) int32 {
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.nodes = append(c.nodes, clockNode{})
		i = int32(len(c.nodes) - 1)
	}
	c.nodes[i] = clockNode{page: page, prev: nilNode, next: nilNode}
	return i
}

func (c *clockPolicy) Insert(page model.PageID) {
	if i, ok := c.index[page]; ok {
		c.nodes[i].ref = true
		return
	}
	i := c.alloc(page)
	if c.hand == nilNode {
		c.nodes[i].prev = i
		c.nodes[i].next = i
		c.hand = i
	} else {
		// Insert just behind the hand, i.e. at the "end" of the sweep
		// order, mirroring a freshly loaded page in a real CLOCK.
		prev := c.nodes[c.hand].prev
		c.nodes[i].prev = prev
		c.nodes[i].next = c.hand
		c.nodes[prev].next = i
		c.nodes[c.hand].prev = i
	}
	c.index[page] = i
}

func (c *clockPolicy) Touch(page model.PageID) {
	if i, ok := c.index[page]; ok {
		c.nodes[i].ref = true
	}
}

func (c *clockPolicy) Evict() (model.PageID, bool) {
	if c.hand == nilNode {
		return 0, false
	}
	for {
		i := c.hand
		if c.nodes[i].ref {
			c.nodes[i].ref = false
			c.hand = c.nodes[i].next
			continue
		}
		page := c.nodes[i].page
		c.hand = c.nodes[i].next
		c.detach(i)
		delete(c.index, page)
		return page, true
	}
}

// detach removes node i, which the hand has just passed, from the
// circular list and returns it to the free list.
func (c *clockPolicy) detach(i int32) {
	if c.nodes[i].next == i {
		// last node
		c.hand = nilNode
	} else {
		prev, next := c.nodes[i].prev, c.nodes[i].next
		c.nodes[prev].next = next
		c.nodes[next].prev = prev
	}
	c.free = append(c.free, i)
}
