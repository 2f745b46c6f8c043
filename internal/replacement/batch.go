package replacement

import "hbmsim/internal/model"

// BatchToucher is an optional interface the dense policies implement: a
// single TouchAll(pages) call is behaviourally identical to calling
// Touch(p) for each page in order, but lets a policy exploit batch
// structure. The simulator's fast-forward path uses it to replay a
// contention-free stretch's touches in one call.
//
// The contract is exact: after TouchAll the policy's observable state
// (victim order, reference bits, clairvoyant cursors) must be
// bit-identical to the sequential Touch loop. No evictions or inserts
// may be interleaved with the batch — the fast-forward path guarantees
// that, because residency is static during a stretch.
type BatchToucher interface {
	TouchAll(pages []model.PageID)
}

// TouchAll on the LRU/FIFO list exploits that with no interleaved
// evictions or inserts, only each page's *last* touch determines the
// final recency order: touching a page again later re-moves it to the
// MRU end, erasing any earlier move. The batch is scanned backwards
// collecting first (i.e. last-in-order) occurrences, then the distinct
// pages are relinked in forward last-occurrence order — O(batch) stamp
// reads plus O(distinct) list surgery instead of O(batch) unlink/relink
// pairs. FIFO (touchMoves false) returns immediately, as Touch does.
func (l *denseList) TouchAll(pages []model.PageID) {
	if !l.touchMoves {
		return
	}
	if l.stamp == nil {
		// Distinct pages per batch are bounded by the universe, so one
		// backing array serves both the stamps and the collected batch
		// and every later call is allocation-free.
		u := len(l.resident)
		buf := make([]uint32, 2*u)
		l.stamp = buf[:u:u]
		l.batch = buf[u:u]
	}
	l.stampGen++
	if l.stampGen == 0 { // uint32 wrap: stale stamps could alias, reset
		clear(l.stamp)
		l.stampGen = 1
	}
	l.batch = l.batch[:0]
	for i := len(pages) - 1; i >= 0; i-- {
		p := uint32(pages[i])
		if l.stamp[p] == l.stampGen {
			continue
		}
		l.stamp[p] = l.stampGen
		l.batch = append(l.batch, p)
	}
	for i := len(l.batch) - 1; i >= 0; i-- {
		p := int32(l.batch[i])
		if !l.resident[p] || l.tail == p {
			continue
		}
		l.unlink(p)
		l.pushBack(p)
	}
}

// TouchAll on CLOCK sets each touched resident page's reference bit;
// bits are idempotent, so the loop is already optimal.
func (c *denseClock) TouchAll(pages []model.PageID) {
	for _, p := range pages {
		if c.resident[p] {
			c.ref[p] = true
		}
	}
}

// TouchAll on Random is a no-op, as Touch is.
func (r *denseRandom) TouchAll([]model.PageID) {}

// TouchAll on the clairvoyant policy replays each touch: every Touch
// advances the owning core's stream position and the page's occurrence
// cursor, so the calls are not collapsible — but each is O(1) amortised
// over the occurrence list.
func (b *denseBelady) TouchAll(pages []model.PageID) {
	for _, p := range pages {
		b.Touch(p)
	}
}

// Recency is an optional interface of the dense LRU and FIFO list: it
// exposes the victim end and an ordered relink, so a caller that defers
// recency updates can tell whether the list's head is still the true
// victim and, when it is not, apply the deferred updates in one pass.
type Recency interface {
	// Head returns the page Evict would remove next, without removing
	// it; ok is false when the list is empty.
	Head() (page model.PageID, ok bool)
	// Relink moves each resident page of pages, in order, to the
	// most-recently-used end: the sequential Touch loop over pages,
	// without TouchAll's de-duplication (callers pass distinct pages).
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
