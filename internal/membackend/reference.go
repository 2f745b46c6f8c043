package membackend

import (
	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// reference is the paper's far-channel model, extracted verbatim from
// the pre-interface tick kernel: q pipelined channels grant q transfers
// per tick, and every transfer lands exactly fetchLatency ticks after it
// was granted (land = start + L - 1, drained at the end of that tick).
// With L = 1 a granted transfer lands on its own grant tick, which is
// why DueAt must fold the same-tick grants bounded by queueLen — the
// kernel sizes evictions before the grant phase runs.
//
// Land ticks grow with start ticks, so the in-flight queue stays in
// start order, and SaveState's payload is byte-identical to the HBMSNAP
// v2 'I' section (which is what lets the legacy decode path feed a v2
// snapshot straight into LoadState).
type reference struct {
	inflight
	channels int
	latency  int
}

func newReference(channels, latency, cores int) *reference {
	b := &reference{channels: channels, latency: latency}
	b.inflight = newInflight(b.MaxInFlight(), cores)
	return b
}

func (b *reference) GrantLimit(model.Tick) int { return b.channels }

func (b *reference) Start(t model.Tick, tr Transfer) {
	b.insert(pending{core: tr.Core, page: tr.Page, done: t + model.Tick(b.latency) - 1})
}

func (b *reference) DueAt(t model.Tick, queueLen int) int {
	if b.latency == 1 {
		return min(queueLen, b.channels)
	}
	return b.inflight.DueAt(t, queueLen)
}

func (b *reference) MaxInFlight() int { return b.channels * b.latency }

// SaveState writes the in-flight transfers exactly as the pre-interface
// kernel's 'I' section did: a count, then (core, page, land) triples in
// start order. Byte-identity here is load-bearing — the v2 legacy
// decode path replays an old 'I' payload through LoadState unchanged.
func (b *reference) SaveState(w *snap.Writer) { b.save(w, 0) }

func (b *reference) LoadState(r *snap.Reader) { b.load(r, b.MaxInFlight(), 0) }
