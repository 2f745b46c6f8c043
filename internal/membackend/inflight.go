package membackend

import (
	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// inflight holds a backend's started transfers ordered by completion
// tick, ties in start order, so the transfers due at a tick are always
// a prefix. Every backend embeds one and inherits Drain and
// NextEventTick from it; bandwidth and hybrid inherit DueAt too. The
// backing array is preallocated to the backend's MaxInFlight, so the
// steady state never allocates.
type inflight struct {
	xs []pending
}

// pending is a started transfer waiting for its completion tick.
type pending struct {
	core model.CoreID
	page model.PageID
	done model.Tick
}

func newInflight(capacity int) inflight { return inflight{xs: make([]pending, 0, capacity)} }

// insert places x after every transfer due at or before x.done. A
// transfer due no earlier than the last one is appended, which is every
// Start of the reference model: its completion ticks grow with start
// ticks.
func (q *inflight) insert(x pending) {
	i := len(q.xs)
	for i > 0 && q.xs[i-1].done > x.done {
		i--
	}
	if i == len(q.xs) {
		q.xs = append(q.xs, x)
		return
	}
	q.xs = append(q.xs, pending{})
	copy(q.xs[i+1:], q.xs[i:])
	q.xs[i] = x
}

// DueAt counts the transfers due by t. The backends whose transfers
// never land on their start tick need nothing else, so the kernel's
// queue length goes unread.
func (q *inflight) DueAt(t model.Tick, _ int) int {
	n := 0
	for _, x := range q.xs {
		if x.done > t {
			break
		}
		n++
	}
	return n
}

// Drain appends the transfers due by t to dst and removes them.
func (q *inflight) Drain(t model.Tick, dst []Transfer) []Transfer {
	n := 0
	for _, x := range q.xs {
		if x.done > t {
			break
		}
		dst = append(dst, Transfer{Core: x.core, Page: x.page})
		n++
	}
	if n > 0 {
		q.xs = q.xs[:copy(q.xs, q.xs[n:])]
	}
	return dst
}

// NextEventTick is the head's completion tick, or 0 when empty.
func (q *inflight) NextEventTick() model.Tick {
	if len(q.xs) == 0 {
		return 0
	}
	return q.xs[0].done
}

// save writes the count, then each transfer as (core, page, done). A
// non-zero size is written between page and done: the bandwidth and
// hybrid layouts carry a transfer size there, which is always the page
// size.
func (q *inflight) save(w *snap.Writer, size int) {
	w.Int(len(q.xs))
	for _, x := range q.xs {
		w.U64(uint64(x.core))
		w.U64(uint64(x.page))
		if size != 0 {
			w.Int(size)
		}
		w.U64(uint64(x.done))
	}
}

// load reads what save wrote, refusing more than limit transfers, a
// size slot other than size, and completion ticks out of order.
func (q *inflight) load(r *snap.Reader, limit, size int) {
	n := r.Len(limit, "in-flight transfers")
	q.xs = q.xs[:0]
	last := model.Tick(0)
	for i := 0; i < n; i++ {
		core := r.Core()
		page := r.Page()
		if size != 0 {
			if got := r.U64(); r.Err() == nil && got != uint64(size) {
				r.Failf("membackend: snapshot transfer size %d, want the page size %d", got, size)
			}
		}
		done := model.Tick(r.U64())
		if r.Err() != nil {
			return
		}
		if done < last {
			r.Failf("membackend: snapshot in-flight done ticks not monotone at %d", done)
			return
		}
		last = done
		q.xs = append(q.xs, pending{core: model.CoreID(core), page: model.PageID(page), done: done})
	}
}
