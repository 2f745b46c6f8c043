package membackend

import (
	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// bandwidth models q independent channels that each move BytesPerTick
// bytes per tick, one transfer at a time (SNIPPETS.md Snippet 1's
// HBMChannel): a page transfer occupies its channel for
// ceil(PageBytes/BytesPerTick) ticks and lands LatencyTicks after the
// channel finishes. A channel is granted only while free, so under load
// the grant limit — not the arbiter — throttles admission.
//
// Every completion tick is strictly after its start tick (the occupancy
// is at least one tick and the landing comes after it), so DueAt never
// has to reason about same-tick grants the way the reference model
// does: the in-flight queue answers it.
type bandwidth struct {
	inflight
	// occupancy is the ticks one page transfer holds its channel.
	occupancy model.Tick
	latency   model.Tick
	pageBytes int

	// freeAt[i] is the first tick channel i can begin a new transfer.
	freeAt []model.Tick
}

func newBandwidth(c Config, channels, cores int) *bandwidth {
	b := &bandwidth{
		occupancy: model.Tick(c.occupancy()),
		latency:   model.Tick(c.LatencyTicks),
		pageBytes: c.PageBytes,
		freeAt:    make([]model.Tick, channels),
	}
	b.inflight = newInflight(b.MaxInFlight(), cores)
	return b
}

func (b *bandwidth) GrantLimit(t model.Tick) int {
	n := 0
	for _, f := range b.freeAt {
		if f <= t {
			n++
		}
	}
	return n
}

func (b *bandwidth) Start(t model.Tick, tr Transfer) {
	// Lowest-index free channel; if the kernel over-grants (contract
	// violation, but stay deterministic), queue behind the earliest-free
	// channel instead.
	ch := -1
	for i, f := range b.freeAt {
		if f <= t {
			ch = i
			break
		}
	}
	begin := t
	if ch == -1 {
		ch = 0
		for i := 1; i < len(b.freeAt); i++ {
			if b.freeAt[i] < b.freeAt[ch] {
				ch = i
			}
		}
		begin = b.freeAt[ch]
	}
	b.freeAt[ch] = begin + b.occupancy
	b.insert(pending{core: tr.Core, page: tr.Page, done: begin + b.occupancy + b.latency})
}

// MaxInFlight bounds a channel's pipeline depth: starts on one channel
// are at least one occupancy apart, so at most latency+2 of its
// transfers can be awaiting completion at once.
func (b *bandwidth) MaxInFlight() int { return len(b.freeAt) * (int(b.latency) + 2) }

func (b *bandwidth) SaveState(w *snap.Writer) {
	for _, f := range b.freeAt {
		w.U64(uint64(f))
	}
	b.save(w, b.pageBytes)
}

func (b *bandwidth) LoadState(r *snap.Reader) {
	for i := range b.freeAt {
		b.freeAt[i] = model.Tick(r.U64())
	}
	b.load(r, b.MaxInFlight(), b.pageBytes)
}
