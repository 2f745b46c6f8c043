package telemetry

import (
	"hbmsim/internal/core"
	"hbmsim/internal/metrics"
)

// Meter is a core.CounterObserver that publishes the simulator's counter
// ledger into atomic instruments in a metrics.Registry, so a live
// /metrics or /debug/vars endpoint can watch a running simulation from
// another goroutine. It receives no events, so attaching it leaves the
// step loop as it runs unobserved. It adds each ledger's change since the
// previous one, so live values lag the run by up to 1024 ticks (or one
// fast-forwarded stretch) and are exact at run end.
//
// Registered series (all but the core_ series prefixed hbmsim_):
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
//	core_ff_ticks_total       ticks executed by the fast-forward path, or
//	                          jumped by a cruising run
//	core_ff_stretches_total   stretches batched by the fast-forward path,
//	                          or jumps of a cruising run
//	core_cruised_serves_total serves folded by cruising cores
//
// A Meter follows one simulation; Meters sharing a registry accumulate.
type Meter struct {
	core.NopObserver

	ticks, serves, hits, misses     *metrics.Counter
	fetches, evictions              *metrics.Counter
	grants, remaps                  *metrics.Counter
	ffTicks, ffStretches, cruised   *metrics.Counter
	queueDepth, response, grantWait *metrics.Histogram
	last                            core.Counters // the ledger at the previous OnCounters
}

// NewMeter registers the simulator instruments in reg (get-or-create, so
// several sims may share one registry and their counts accumulate) and
// returns the observer. A nil registry yields a functional Meter on
// throwaway instruments.
func NewMeter(reg *metrics.Registry) *Meter {
	// The histograms' power-of-two bounds are core.Dist's buckets.
	return &Meter{
		ticks:       reg.Counter("hbmsim_ticks_total", "executed simulation ticks"),
		serves:      reg.Counter("hbmsim_serves_total", "references served from HBM"),
		hits:        reg.Counter("hbmsim_hits_total", "serves with response time 1 (HBM hits)"),
		misses:      reg.Counter("hbmsim_misses_total", "requests that entered the DRAM queue"),
		fetches:     reg.Counter("hbmsim_fetches_total", "DRAM-to-HBM page transfers landed"),
		evictions:   reg.Counter("hbmsim_evictions_total", "pages evicted from HBM"),
		grants:      reg.Counter("hbmsim_grants_total", "far-channel grants issued"),
		remaps:      reg.Counter("hbmsim_remaps_total", "priority permutation re-draws"),
		ffTicks:     reg.Counter("core_ff_ticks_total", "simulation ticks executed by the core fast-forward path or jumped by a cruising run"),
		ffStretches: reg.Counter("core_ff_stretches_total", "contention-free stretches batched by the core fast-forward path or jumps of a cruising run"),
		cruised:     reg.Counter("core_cruised_serves_total", "serves folded by cruising cores instead of stepped tick by tick"),
		queueDepth: reg.Histogram("hbmsim_queue_depth_refs", "end-of-tick DRAM queue depth in queued references",
			metrics.ExpBuckets(1, 2, 12)), // 1..2048, +Inf
		response: reg.Histogram("hbmsim_response_ticks", "per-reference response time in ticks",
			metrics.ExpBuckets(1, 2, 16)), // 1..32768, +Inf
		grantWait: reg.Histogram("hbmsim_grant_wait_ticks", "ticks spent in the DRAM queue before a grant",
			metrics.ExpBuckets(1, 2, 16)),
	}
}

// Serves returns the serves counter's current value.
func (m *Meter) Serves() uint64 { return m.serves.Value() }

// Ticks returns the ticks counter's current value.
func (m *Meter) Ticks() uint64 { return m.ticks.Value() }

// OnCounters publishes the ledger's change since the previous call.
func (m *Meter) OnCounters(c *core.Counters) {
	l := &m.last
	m.ticks.Add(c.Ticks - l.Ticks)
	m.serves.Add(c.Serves - l.Serves)
	m.hits.Add(c.Hits - l.Hits)
	m.misses.Add(c.Queued - l.Queued)
	m.fetches.Add(c.Fetches - l.Fetches)
	m.evictions.Add(c.Evictions - l.Evictions)
	m.grants.Add(c.Grants - l.Grants)
	m.remaps.Add(c.Remaps - l.Remaps)
	m.ffTicks.Add(c.FFTicks - l.FFTicks)
	m.ffStretches.Add(c.FFStretches - l.FFStretches)
	m.cruised.Add(c.Cruised - l.Cruised)
	addDist(m.queueDepth, &c.QueueDepth, &l.QueueDepth)
	addDist(m.response, &c.Response, &l.Response)
	addDist(m.grantWait, &c.GrantWait, &l.GrantWait)
	m.last = *c
}

// addDist adds the change from prev to d into h.
func addDist(h *metrics.Histogram, d, prev *core.Dist) {
	var delta [len(core.Dist{}.Buckets)]uint64
	for i := range delta {
		delta[i] = d.Buckets[i] - prev.Buckets[i]
	}
	h.AddBuckets(delta[:], float64(d.Sum-prev.Sum))
}
