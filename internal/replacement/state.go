package replacement

import (
	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// Checkpoint support for the dense policies (the only ones production
// simulations construct — see core.New). Each policy serialises its
// residency set in a canonical order and restores by resetting to empty
// and replaying inserts, which reproduces the internal linked structures
// exactly:
//
//   - denseList saves head→tail; Insert appends at the tail, so replay
//     in saved order rebuilds the identical recency list.
//   - denseClock saves the sweep order starting at the hand with each
//     page's reference bit; Insert places new pages just behind the
//     hand, so replay rebuilds the identical ring with the hand on the
//     first saved page.
//   - denseRandom saves the pages slice in order (Evict swap-removes at
//     a random index, so order is state) plus its rng position.
//   - denseBelady saves the per-core serve counts, per-page occurrence
//     cursors, and the resident slice; the CSR occurrence table is
//     construction-time state rebuilt from the traces.
//
// Every decoded page is bounds-checked against the Reader's universe
// limit and rejected on duplicates, so corrupt snapshots error cleanly.
// The map-based policies from New have no checkpoint support: they back
// core.RunReference, which never checkpoints, and serve as the dense
// policies' test oracle.

// SaveState implements snap.Saver.
func (l *denseList) SaveState(w *snap.Writer) {
	w.Int(l.n)
	for i := l.head; i != nilNode; i = l.next[i] {
		w.U64(uint64(i))
	}
}

// LoadState implements snap.Loader.
func (l *denseList) LoadState(r *snap.Reader) {
	for i := range l.resident {
		l.resident[i] = false
	}
	l.head, l.tail, l.n = nilNode, nilNode, 0
	n := r.Len(len(l.resident), "list pages")
	for i := 0; i < n; i++ {
		p := r.Page()
		if r.Err() != nil {
			return
		}
		if l.resident[p] {
			r.Failf("snap: page %d twice in replacement list", p)
			return
		}
		l.Insert(model.PageID(p))
	}
}

// SaveState implements snap.Saver.
func (c *denseClock) SaveState(w *snap.Writer) {
	w.Int(c.n)
	i := c.hand
	for range c.n {
		w.U64(uint64(i))
		w.Bool(c.ref[i])
		i = c.next[i]
	}
}

// LoadState implements snap.Loader.
func (c *denseClock) LoadState(r *snap.Reader) {
	for i := range c.resident {
		c.resident[i] = false
		c.ref[i] = false
	}
	c.hand, c.n = nilNode, 0
	n := r.Len(len(c.resident), "clock pages")
	for i := 0; i < n; i++ {
		p := r.Page()
		ref := r.Bool()
		if r.Err() != nil {
			return
		}
		if c.resident[p] {
			r.Failf("snap: page %d twice in clock ring", p)
			return
		}
		c.Insert(model.PageID(p))
		c.ref[p] = ref
	}
}

// SaveState implements snap.Saver.
func (d *denseRandom) SaveState(w *snap.Writer) {
	w.Int(len(d.pages))
	for _, p := range d.pages {
		w.U64(uint64(p))
	}
	d.src.SaveState(w)
}

// LoadState implements snap.Loader.
func (d *denseRandom) LoadState(r *snap.Reader) {
	for i := range d.index {
		d.index[i] = -1
	}
	d.pages = d.pages[:0]
	n := r.Len(len(d.index), "random pages")
	for i := 0; i < n; i++ {
		p := r.Page()
		if r.Err() != nil {
			return
		}
		if d.index[p] >= 0 {
			r.Failf("snap: page %d twice in random set", p)
			return
		}
		d.index[p] = int32(len(d.pages))
		d.pages = append(d.pages, model.PageID(p))
	}
	d.src.LoadState(r)
}

// FinishLoad implements snap.Finisher (rng replay after checksum
// verification).
func (d *denseRandom) FinishLoad() error { return d.src.FinishLoad() }

// SaveState implements snap.Saver.
func (b *denseBelady) SaveState(w *snap.Writer) {
	w.Int(len(b.pos))
	for _, v := range b.pos {
		w.U64(uint64(v))
	}
	for p, cur := range b.cursor {
		// Cursors are stored relative to the page's CSR segment start, so
		// a restore can range-check them without trusting the stream.
		w.U64(uint64(cur - b.start[p]))
	}
	w.Int(len(b.resident))
	for _, p := range b.resident {
		w.U64(uint64(p))
	}
}

// LoadState implements snap.Loader.
func (b *denseBelady) LoadState(r *snap.Reader) {
	if got := r.Len(len(b.pos), "belady cores"); got != len(b.pos) && r.Err() == nil {
		r.Failf("snap: belady core count %d, want %d", got, len(b.pos))
	}
	if r.Err() != nil {
		return
	}
	for i := range b.pos {
		v := r.U64()
		if v > uint64(len(b.occ)) {
			r.Failf("snap: belady serve count %d exceeds trace total %d", v, len(b.occ))
			return
		}
		b.pos[i] = int32(v)
	}
	for p := range b.cursor {
		off := r.U64()
		seg := uint64(b.start[p+1] - b.start[p])
		if off > seg {
			r.Failf("snap: belady cursor offset %d exceeds page %d's %d occurrences", off, p, seg)
			return
		}
		b.cursor[p] = b.start[p] + int32(off)
	}
	for i := range b.index {
		b.index[i] = -1
	}
	b.resident = b.resident[:0]
	n := r.Len(len(b.index), "belady pages")
	for i := 0; i < n; i++ {
		p := r.Page()
		if r.Err() != nil {
			return
		}
		if b.index[p] >= 0 {
			r.Failf("snap: page %d twice in belady set", p)
			return
		}
		b.index[p] = int32(len(b.resident))
		b.resident = append(b.resident, model.PageID(p))
	}
}
