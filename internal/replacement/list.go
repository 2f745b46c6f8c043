package replacement

import "hbmsim/internal/model"

// listPolicy implements LRU and FIFO with an intrusive doubly-linked list
// over a slab of nodes plus a page->node index. The front of the list is
// the eviction victim; Insert appends to the back. With touchMoves set
// (LRU), Touch moves the page to the back; without it (FIFO), Touch is a
// no-op, so eviction order is insertion order.
type listPolicy struct {
	touchMoves bool

	nodes []listNode
	free  []int32 // free-list of node indices
	index map[model.PageID]int32
	head  int32 // victim end; -1 when empty
	tail  int32 // MRU end; -1 when empty
}

type listNode struct {
	page model.PageID
	prev int32
	next int32
}

const nilNode int32 = -1

func newList(touchMoves bool) *listPolicy {
	return &listPolicy{
		touchMoves: touchMoves,
		index:      make(map[model.PageID]int32),
		head:       nilNode,
		tail:       nilNode,
	}
}

func (l *listPolicy) Len() int { return len(l.index) }

func (l *listPolicy) Contains(page model.PageID) bool {
	_, ok := l.index[page]
	return ok
}

func (l *listPolicy) alloc(page model.PageID) int32 {
	var i int32
	if n := len(l.free); n > 0 {
		i = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		l.nodes = append(l.nodes, listNode{})
		i = int32(len(l.nodes) - 1)
	}
	l.nodes[i] = listNode{page: page, prev: nilNode, next: nilNode}
	return i
}

// pushBack links node i at the tail (MRU end).
func (l *listPolicy) pushBack(i int32) {
	l.nodes[i].prev = l.tail
	l.nodes[i].next = nilNode
	if l.tail != nilNode {
		l.nodes[l.tail].next = i
	} else {
		l.head = i
	}
	l.tail = i
}

// unlink detaches node i from the list without freeing it.
func (l *listPolicy) unlink(i int32) {
	n := l.nodes[i]
	if n.prev != nilNode {
		l.nodes[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nilNode {
		l.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
}

func (l *listPolicy) Insert(page model.PageID) {
	if _, ok := l.index[page]; ok {
		// Insert of an already-tracked page is a contract violation by the
		// caller; treat it as a Touch to stay safe.
		l.Touch(page)
		return
	}
	i := l.alloc(page)
	l.pushBack(i)
	l.index[page] = i
}

func (l *listPolicy) Touch(page model.PageID) {
	if !l.touchMoves {
		return
	}
	i, ok := l.index[page]
	if !ok {
		return
	}
	if l.tail == i {
		return
	}
	l.unlink(i)
	l.pushBack(i)
}

func (l *listPolicy) Evict() (model.PageID, bool) {
	if l.head == nilNode {
		return 0, false
	}
	i := l.head
	page := l.nodes[i].page
	l.unlink(i)
	l.free = append(l.free, i)
	delete(l.index, page)
	return page, true
}
