package membackend

import (
	"fmt"

	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// hybrid models a two-tier DRAM+NVM far memory with the read/write
// asymmetry of the hybrid-memory analytic models: a page fetched from
// the FIFO-managed fast tier costs FastReadTicks, one fetched from the
// slow tier costs SlowReadTicks (and is promoted into the fast tier,
// FIFO-evicting the oldest resident when full). Evicted HBM pages write
// back through a dedicated writeback channel at FastWriteTicks or
// SlowWriteTicks — the slow tier's write penalty is the NVM signature —
// and while that channel is behind, one fetch channel is withheld from
// the grant limit, so heavy eviction traffic visibly throttles fetch
// bandwidth.
//
// Fetch channels are pipelined like the reference model's (q grants per
// tick); completion order follows read cost, so a fast-tier hit started
// after a slow-tier read can land first. Every completion is strictly
// after its start tick (costs are >= 1), so the in-flight queue answers
// DueAt.
type hybrid struct {
	inflight
	channels  int
	fastSlots int
	fastRead  model.Tick
	slowRead  model.Tick
	fastWrite model.Tick
	slowWrite model.Tick
	pageBytes int

	// fastFIFO holds the fast tier's residents in arrival order;
	// fastSet mirrors it for O(1) membership.
	fastFIFO []model.PageID
	fastSet  map[model.PageID]struct{}
	// wbFreeAt is the first tick the writeback channel is idle again.
	wbFreeAt model.Tick
}

func newHybrid(c Config, channels, cores int) *hybrid {
	b := &hybrid{
		channels:  channels,
		fastSlots: c.FastSlots,
		fastRead:  model.Tick(c.FastReadTicks),
		slowRead:  model.Tick(c.SlowReadTicks),
		fastWrite: model.Tick(c.FastWriteTicks),
		slowWrite: model.Tick(c.SlowWriteTicks),
		pageBytes: c.PageBytes,
		fastFIFO:  make([]model.PageID, 0, c.FastSlots),
		fastSet:   make(map[model.PageID]struct{}, c.FastSlots),
	}
	b.inflight = newInflight(b.MaxInFlight(), cores)
	return b
}

func (b *hybrid) GrantLimit(t model.Tick) int {
	if b.wbFreeAt > t && b.channels > 1 {
		return b.channels - 1
	}
	return b.channels
}

// admitFast promotes a page into the fast tier, FIFO-evicting the
// oldest resident when the tier is full.
func (b *hybrid) admitFast(p model.PageID) {
	if _, ok := b.fastSet[p]; ok {
		return
	}
	if len(b.fastFIFO) >= b.fastSlots {
		old := b.fastFIFO[0]
		b.fastFIFO = b.fastFIFO[:copy(b.fastFIFO, b.fastFIFO[1:])]
		delete(b.fastSet, old)
	}
	b.fastFIFO = append(b.fastFIFO, p)
	b.fastSet[p] = struct{}{}
}

func (b *hybrid) Start(t model.Tick, tr Transfer) {
	cost := b.slowRead
	if _, ok := b.fastSet[tr.Page]; ok {
		cost = b.fastRead
	} else {
		b.admitFast(tr.Page)
	}
	b.insert(pending{core: tr.Core, page: tr.Page, done: t + cost})
}

// MaxInFlight: fetch channels are pipelined and a fetch lives at most
// SlowReadTicks ticks, so each channel holds at most that many.
func (b *hybrid) MaxInFlight() int { return b.channels * int(b.slowRead) }

// Writeback queues an evicted page onto the writeback channel: the cost
// is the tier the page currently maps to, and the channel serialises
// (wbFreeAt accumulates under backlog). Writing a page back also drops
// it from the fast tier — its next fetch pays the slow-read cost, which
// is the read-after-evict penalty the two-tier model exists to expose.
func (b *hybrid) Writeback(t model.Tick, page model.PageID) {
	cost := b.slowWrite
	if _, ok := b.fastSet[page]; ok {
		cost = b.fastWrite
		for i, p := range b.fastFIFO {
			if p == page {
				b.fastFIFO = append(b.fastFIFO[:i], b.fastFIFO[i+1:]...)
				break
			}
		}
		delete(b.fastSet, page)
	}
	begin := b.wbFreeAt
	if begin < t {
		begin = t
	}
	b.wbFreeAt = begin + cost
}

func (b *hybrid) SaveState(w *snap.Writer) {
	w.Int(len(b.fastFIFO))
	for _, p := range b.fastFIFO {
		w.U64(uint64(p))
	}
	b.save(w, b.pageBytes)
	w.U64(uint64(b.wbFreeAt))
}

func (b *hybrid) LoadState(r *snap.Reader) {
	n := r.Len(b.fastSlots, "fast-tier pages")
	b.fastFIFO = b.fastFIFO[:0]
	for p := range b.fastSet {
		delete(b.fastSet, p)
	}
	for i := 0; i < n; i++ {
		p := model.PageID(r.Page())
		if r.Err() != nil {
			return
		}
		if _, dup := b.fastSet[p]; dup {
			r.Fail(fmt.Errorf("membackend: snapshot fast tier repeats page %d", p))
			return
		}
		b.fastFIFO = append(b.fastFIFO, p)
		b.fastSet[p] = struct{}{}
	}
	// A run's fetches all read the slow tier (Writeback drops every page
	// HBM evicts from the fast tier), so at most q complete on one tick.
	b.load(r, b.MaxInFlight(), b.channels, int(b.slowRead), b.pageBytes)
	b.wbFreeAt = model.Tick(r.U64())
}
