package arbiter

import (
	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// Checkpoint support: each arbiter serialises its queue as a request
// count followed by the requests in a canonical order, and restores by
// replaying Push on an emptied queue. Replay is exact for FIFO (requests
// are saved in pop order) and state-equivalent for Priority (each
// request has its own rank slot, so slot contents do not depend on the
// order). Random additionally records its rng stream position. Requests
// hands a restored queue to the caller, which checks it against the
// cores' state.
//
// Decoded counts are bounded by Reader.MaxCores — the model admits at
// most one queued request per core — and request fields are validated by
// the Reader's core/page limits, so corrupt snapshots fail cleanly.

func saveRequest(w *snap.Writer, r model.Request) {
	w.U64(uint64(r.Core))
	w.U64(uint64(r.Page))
	w.U64(uint64(r.Issued))
	w.U64(r.Seq)
}

func loadRequest(r *snap.Reader) model.Request {
	c := r.Core()
	p := r.Page()
	issued := r.U64()
	seq := r.U64()
	return model.Request{Core: model.CoreID(c), Page: model.PageID(p), Issued: model.Tick(issued), Seq: seq}
}

// SaveState implements snap.Saver: the ring contents in pop order.
func (f *fifoArbiter) SaveState(w *snap.Writer) {
	w.Int(f.n)
	for i := 0; i < f.n; i++ {
		saveRequest(w, f.buf[(f.head+i)&f.mask])
	}
}

// Requests implements Arbiter: the ring contents in pop order.
func (f *fifoArbiter) Requests(dst []model.Request) []model.Request {
	for i := 0; i < f.n; i++ {
		dst = append(dst, f.buf[(f.head+i)&f.mask])
	}
	return dst
}

// LoadState implements snap.Loader.
func (f *fifoArbiter) LoadState(r *snap.Reader) {
	f.head, f.n = 0, 0
	n := r.Len(int(r.MaxCores), "fifo queue")
	for i := 0; i < n; i++ {
		f.Push(loadRequest(r))
	}
}

// SaveState implements snap.Saver: the slotted requests in rank order.
func (a *priorityArbiter) SaveState(w *snap.Writer) {
	w.Int(a.n)
	for _, r := range a.Requests(a.scratch[:0]) {
		saveRequest(w, r)
	}
}

// LoadState implements snap.Loader. The caller must have restored the
// priority permutation (UpdatePriorities) first, so each request is
// slotted under its saved rank. A second request at an occupied rank is
// refused: ranks are a permutation and a core has one request
// outstanding, so no run queues two.
func (a *priorityArbiter) LoadState(r *snap.Reader) {
	clear(a.words)
	a.n = 0
	n := r.Len(int(r.MaxCores), "priority queue")
	for i := 0; i < n; i++ {
		req := loadRequest(r)
		if r.Err() != nil {
			return
		}
		if rank := int(a.pri[req.Core]); a.occupied(rank) {
			r.Failf("snap: cores %d and %d both queued at priority rank %d", a.byRank[rank].Core, req.Core, rank)
			return
		}
		a.Push(req)
	}
}

// SaveState implements snap.Saver: the queue in slice order plus the rng
// position (slice order matters — Pop swap-removes at a random index).
func (a *randomArbiter) SaveState(w *snap.Writer) {
	w.Int(len(a.reqs))
	for _, r := range a.reqs {
		saveRequest(w, r)
	}
	a.src.SaveState(w)
}

// Requests implements Arbiter: the queue in slice order.
func (a *randomArbiter) Requests(dst []model.Request) []model.Request {
	return append(dst, a.reqs...)
}

// LoadState implements snap.Loader.
func (a *randomArbiter) LoadState(r *snap.Reader) {
	a.reqs = a.reqs[:0]
	n := r.Len(int(r.MaxCores), "random queue")
	for i := 0; i < n; i++ {
		a.reqs = append(a.reqs, loadRequest(r))
	}
	a.src.LoadState(r)
}

// FinishLoad implements snap.Finisher (rng replay after checksum
// verification).
func (a *randomArbiter) FinishLoad() error { return a.src.FinishLoad() }

// SaveState implements snap.Saver: the permutation stream position.
func (d *dynamicPermuter) SaveState(w *snap.Writer) { d.src.SaveState(w) }

// LoadState implements snap.Loader.
func (d *dynamicPermuter) LoadState(r *snap.Reader) { d.src.LoadState(r) }

// FinishLoad implements snap.Finisher.
func (d *dynamicPermuter) FinishLoad() error { return d.src.FinishLoad() }
