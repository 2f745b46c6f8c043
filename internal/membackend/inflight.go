package membackend

import (
	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// inflight holds a backend's started transfers ordered by completion
// tick, ties in start order, so the transfers due at a tick are always
// a prefix. Every backend embeds one and inherits Drain, NextEventTick
// and Transfers from it; bandwidth and hybrid inherit DueAt too. The
// backing array is preallocated to the smaller of the backend's
// MaxInFlight and the core count (a core has at most one fetch
// outstanding), so the steady state never allocates.
type inflight struct {
	xs []pending
}

// pending is a started transfer waiting for its completion tick.
type pending struct {
	core model.CoreID
	page model.PageID
	done model.Tick
}

func newInflight(maxInFlight, cores int) inflight {
	return inflight{xs: make([]pending, 0, min(maxInFlight, cores))}
}

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

// Transfers appends every transfer in flight to dst.
func (q *inflight) Transfers(dst []Transfer) []Transfer {
	for _, x := range q.xs {
		dst = append(dst, Transfer{Core: x.core, Page: x.page})
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

// load reads what save wrote, refusing more than limit transfers and a
// size slot other than size. A snapshot is taken between ticks, when
// every transfer due has landed and the others started by the
// snapshot's tick, so it also refuses completion ticks out of order, at
// or before the snapshot's tick or more than ahead ticks after it, and
// more than perTick transfers completing on one tick.
func (q *inflight) load(r *snap.Reader, limit, perTick, ahead, size int) {
	n := r.Len(limit, "in-flight transfers")
	q.xs = q.xs[:0]
	now := model.Tick(r.Tick)
	last := now
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
		if done <= now || done < last || done-now > model.Tick(ahead) {
			r.Failf("membackend: snapshot in-flight done tick %d is out of order or not one a transfer started by tick %d can have", done, now)
			return
		}
		if k := len(q.xs) - perTick; k >= 0 && q.xs[k].done == done {
			r.Failf("membackend: snapshot has more than %d transfers completing at tick %d", perTick, done)
			return
		}
		last = done
		q.xs = append(q.xs, pending{core: model.CoreID(core), page: model.PageID(page), done: done})
	}
}
