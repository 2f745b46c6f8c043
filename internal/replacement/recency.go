package replacement

import "hbmsim/internal/model"

// Recency is an optional interface of the dense LRU and FIFO list: it
// exposes the victim end and an ordered relink, so a caller that defers
// recency updates can tell whether the list's head is still the true
// victim and, when it is not, apply the deferred updates in one pass.
type Recency interface {
	// Head returns the page Evict would remove next, without removing
	// it; ok is false when the list is empty.
	Head() (page model.PageID, ok bool)
	// Relink moves each resident page of pages, in order, to the
	// most-recently-used end: the sequential Touch loop over pages
	// (callers pass distinct pages).
	Relink(pages []model.PageID)
}

// Head returns the list's victim end.
func (l *denseList) Head() (model.PageID, bool) {
	if l.head == nilNode {
		return 0, false
	}
	return model.PageID(l.head), true
}

// Relink applies Touch to each page in order; FIFO (touchMoves false)
// returns immediately, as Touch does.
func (l *denseList) Relink(pages []model.PageID) {
	if !l.touchMoves {
		return
	}
	for _, pg := range pages {
		i := int32(pg)
		if !l.resident[i] || l.tail == i {
			continue
		}
		l.unlink(i)
		l.pushBack(i)
	}
}
