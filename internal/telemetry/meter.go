package telemetry

import (
	"hbmsim/internal/core"
	"hbmsim/internal/metrics"
	"hbmsim/internal/model"
)

// Meter is a core.Observer that streams the simulator's hot-path activity
// into atomic instruments in a metrics.Registry, so a live /metrics or
// /debug/vars endpoint can watch a running simulation from another
// goroutine. Every callback is a handful of atomic adds — cheap enough for
// the tick loop — and, like every observer, it never changes results. It
// folds fast-forwarded stretches (core.StretchObserver), so attaching it
// leaves the simulator's batched path in place.
//
// Registered series (all prefixed hbmsim_):
//
//	hbmsim_ticks_total        executed simulation ticks (rate() gives ticks/sec)
//	hbmsim_serves_total       references served from HBM
//	hbmsim_hits_total         serves with response time 1
//	hbmsim_misses_total       requests that entered the DRAM queue
//	hbmsim_fetches_total      DRAM->HBM page transfers landed
//	hbmsim_evictions_total    pages evicted from HBM
//	hbmsim_grants_total       far-channel grants issued
//	hbmsim_remaps_total       priority permutation re-draws
//	hbmsim_queue_depth_refs   histogram of end-of-tick DRAM-queue depth
//	hbmsim_response_ticks     histogram of per-reference response times
//	hbmsim_grant_wait_ticks   histogram of ticks spent queued before a grant
type Meter struct {
	core.NopObserver

	ticks, serves, hits, misses     *metrics.Counter
	fetches, evictions              *metrics.Counter
	grants, remaps                  *metrics.Counter
	queueDepth, response, grantWait *metrics.Histogram
}

// NewMeter registers the simulator instruments in reg (get-or-create, so
// several sims may share one registry and their counts accumulate) and
// returns the observer. A nil registry yields a functional Meter on
// throwaway instruments.
func NewMeter(reg *metrics.Registry) *Meter {
	return &Meter{
		ticks:     reg.Counter("hbmsim_ticks_total", "executed simulation ticks"),
		serves:    reg.Counter("hbmsim_serves_total", "references served from HBM"),
		hits:      reg.Counter("hbmsim_hits_total", "serves with response time 1 (HBM hits)"),
		misses:    reg.Counter("hbmsim_misses_total", "requests that entered the DRAM queue"),
		fetches:   reg.Counter("hbmsim_fetches_total", "DRAM-to-HBM page transfers landed"),
		evictions: reg.Counter("hbmsim_evictions_total", "pages evicted from HBM"),
		grants:    reg.Counter("hbmsim_grants_total", "far-channel grants issued"),
		remaps:    reg.Counter("hbmsim_remaps_total", "priority permutation re-draws"),
		queueDepth: reg.Histogram("hbmsim_queue_depth_refs", "end-of-tick DRAM queue depth in queued references",
			metrics.ExpBuckets(1, 2, 12)), // 1..2048, +Inf
		response: reg.Histogram("hbmsim_response_ticks", "per-reference response time in ticks",
			metrics.ExpBuckets(1, 2, 16)), // 1..32768, +Inf
		grantWait: reg.Histogram("hbmsim_grant_wait_ticks", "ticks spent in the DRAM queue before a grant",
			metrics.ExpBuckets(1, 2, 16)),
	}
}

// Serves returns the serves counter's current value; /progress handlers
// use it as the completed-work figure for a single simulation.
func (m *Meter) Serves() uint64 { return m.serves.Value() }

// Ticks returns the ticks counter's current value.
func (m *Meter) Ticks() uint64 { return m.ticks.Value() }

// OnQueue implements core.Observer.
func (m *Meter) OnQueue(model.CoreID, model.PageID, model.Tick) { m.misses.Inc() }

// OnGrant implements core.Observer.
func (m *Meter) OnGrant(_ model.CoreID, _ model.PageID, _, wait model.Tick) {
	m.grants.Inc()
	m.grantWait.Observe(float64(wait))
}

// OnServe implements core.Observer.
func (m *Meter) OnServe(_ model.CoreID, _ model.PageID, _, response model.Tick) {
	m.serves.Inc()
	if response == 1 {
		m.hits.Inc()
	}
	m.response.Observe(float64(response))
}

// OnFetch implements core.Observer.
func (m *Meter) OnFetch(model.CoreID, model.PageID, model.Tick) { m.fetches.Inc() }

// OnEvict implements core.Observer.
func (m *Meter) OnEvict(model.PageID, model.Tick) { m.evictions.Inc() }

// OnRemap implements core.Observer.
func (m *Meter) OnRemap(model.Tick, []int32, []int32) { m.remaps.Inc() }

// OnTickEnd implements core.Observer.
func (m *Meter) OnTickEnd(_ model.Tick, depth, _ int) {
	m.ticks.Inc()
	m.queueDepth.Observe(float64(depth))
}

// OnStretch implements core.StretchObserver, so a metered simulation
// keeps its fast-forwarded stretches batched: the stretch's n ticks and
// n*len(active) serves are counted in O(len(active)). Every observation
// is an integer and the sums stay far below 2^53, so ObserveN's sums are
// exact and the exposition is byte-identical to a per-tick replay.
func (m *Meter) OnStretch(_, n model.Tick, active []model.CoreID, first []model.Tick) bool {
	later := uint64(n-1) * uint64(len(active)) // unit-response serves after each core's first
	hits := later
	for _, r := range first {
		if r == 1 {
			hits++
		}
		m.response.Observe(float64(r))
	}
	m.serves.Add(uint64(n) * uint64(len(active)))
	m.hits.Add(hits)
	m.response.ObserveN(1, later)
	m.ticks.Add(uint64(n))
	m.queueDepth.ObserveN(0, uint64(n))
	return true
}
