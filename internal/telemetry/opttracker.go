package telemetry

import (
	"fmt"
	"io"

	"hbmsim/internal/core"
	"hbmsim/internal/lowerbound"
	"hbmsim/internal/metrics"
	"hbmsim/internal/model"
	"hbmsim/internal/stackdist"
)

// OptPoint is one windowed snapshot of the optimality telemetry: how far
// the run sits from the streaming makespan lower bound, and what the
// reuse structure seen so far says about the HBM size the workload needs.
type OptPoint struct {
	// Tick is the snapshot's simulated time.
	Tick model.Tick
	// Serves is the cumulative reference count served by Tick.
	Serves uint64
	// UniquePages is the cumulative distinct-page count (cold misses).
	UniquePages int
	// LowerBound is the streaming makespan lower bound over the prefix.
	LowerBound model.Tick
	// Ratio is Tick / LowerBound, the live competitive-ratio estimate.
	// It can dip below the final value early in a run (the bound only
	// sees the prefix) and converges to the batch estimate at the end.
	Ratio float64
	// MissRatio is the cumulative LRU miss ratio at the configured HBM
	// size, with the slots split evenly across cores (the static-even
	// baseline FIFO arbitration approximates).
	MissRatio float64
	// P90Distance is the 90th-percentile LRU stack distance across all
	// cores' reuses: the per-core HBM share that would catch 90% of the
	// reuses seen so far.
	P90Distance int64
}

// OptTracker is a core.Observer that maintains live optimality telemetry
// for a running simulation: a streaming makespan lower bound (the online
// form of lowerbound.Compute), per-core streaming stack-distance curves
// (stackdist.Streaming), and a set of gauges in a metrics.Registry —
// most importantly competitive_ratio, the measured-ticks-over-lower-bound
// estimate the paper's theorems bound.
//
// The per-tick work is a handful of integer updates and atomic stores;
// the curve bookkeeping is O(log n) per serve. At the end of a completed
// run the tracker's aggregates equal the batch ones (the longest per-core
// serve count is the longest trace, the cumulative distinct pages are the
// workload's unique pages — cores are disjoint by Property 1 — and the
// final tick is the makespan), so Ratio converges bit-for-bit to
// lowerbound.Ratio over lowerbound.Compute. Like every observer, it
// never changes simulation results.
type OptTracker struct {
	core.NopObserver

	k, q   int
	window model.Tick

	builders      []*stackdist.Streaming
	curves        []stackdist.Curve // the builders' curves, refreshed per snapshot
	perCoreServes []uint64
	maxServes     uint64
	serves        uint64
	unique        int
	lastTick      model.Tick

	points   []OptPoint
	onWindow func(OptPoint)

	ratioG     *metrics.FloatGauge
	missRatioG *metrics.FloatGauge
	boundG     *metrics.Gauge
	measuredG  *metrics.Gauge
	uniqueG    *metrics.Gauge
	windowsC   *metrics.Counter
	distH      *metrics.Histogram
}

// NewOptTracker registers the optimality instruments in reg
// (get-or-create; a nil registry yields throwaway instruments) and
// returns a tracker for a simulation of the given core count on an HBM
// of k slots with q far channels. window is the snapshot cadence in
// ticks; 0 selects 4096.
func NewOptTracker(reg *metrics.Registry, cores, k, q int, window model.Tick) *OptTracker {
	if cores < 1 {
		cores = 1
	}
	if q < 1 {
		q = 1
	}
	if window == 0 {
		window = 4096
	}
	t := &OptTracker{
		k:             k,
		q:             q,
		window:        window,
		builders:      make([]*stackdist.Streaming, cores),
		perCoreServes: make([]uint64, cores),

		ratioG: reg.FloatGauge("competitive_ratio",
			"measured ticks over the streaming makespan lower bound (converges to the batch estimate at run end)"),
		missRatioG: reg.FloatGauge("optgap_miss_ratio",
			"cumulative LRU miss ratio at the configured HBM size, slots split evenly across cores"),
		boundG:    reg.Gauge("optgap_lower_bound_ticks", "streaming makespan lower bound over the observed prefix"),
		measuredG: reg.Gauge("optgap_measured_ticks", "simulated ticks observed so far"),
		uniqueG:   reg.Gauge("optgap_unique_pages", "distinct pages observed so far (cold misses)"),
		windowsC:  reg.Counter("optgap_windows_total", "optimality snapshots taken"),
		distH: reg.Histogram("optgap_stack_distance_pages", "LRU stack distance of each reuse, in pages",
			metrics.ExpBuckets(1, 2, 20)), // 1..512Ki pages, +Inf
	}
	for i := range t.builders {
		t.builders[i] = stackdist.NewStreaming()
	}
	return t
}

// SetOnWindow registers a hook called with each windowed snapshot as it
// closes — cmd/hbmsim uses it to emit a competitive-ratio counter track
// into Perfetto traces. The hook runs on the simulation goroutine.
func (t *OptTracker) SetOnWindow(fn func(OptPoint)) { t.onWindow = fn }

// WindowTicks returns the snapshot cadence.
func (t *OptTracker) WindowTicks() model.Tick { return t.window }

// OnServe implements core.Observer: it feeds the core's streaming
// stack-distance curve and the serve aggregates the lower bound needs.
func (t *OptTracker) OnServe(c model.CoreID, p model.PageID, _, _ model.Tick) {
	for int(c) >= len(t.builders) { // defensive: cores beyond the declared count
		t.builders = append(t.builders, stackdist.NewStreaming())
		t.perCoreServes = append(t.perCoreServes, 0)
	}
	if d := t.builders[c].Observe(p); d < 0 {
		t.unique++
	} else {
		t.distH.Observe(float64(d))
	}
	t.perCoreServes[c]++
	if t.perCoreServes[c] > t.maxServes {
		t.maxServes = t.perCoreServes[c]
	}
	t.serves++
}

// OnTickEnd implements core.Observer: it refreshes the live gauges every
// tick and closes a snapshot window on the cadence boundary.
func (t *OptTracker) OnTickEnd(tick model.Tick, _, _ int) {
	t.lastTick = tick
	b := t.bounds()
	t.measuredG.Set(int64(tick))
	t.boundG.Set(int64(b.Makespan))
	t.uniqueG.Set(int64(t.unique))
	t.ratioG.Set(lowerbound.Ratio(tick, b))
	if tick%t.window == 0 {
		pt := t.snapshotAt(tick, b)
		t.missRatioG.Set(pt.MissRatio)
		t.points = append(t.points, pt)
		t.windowsC.Inc()
		if t.onWindow != nil {
			t.onWindow(pt)
		}
	}
}

// bounds returns the streaming lower bound over the observed prefix,
// sharing lowerbound.FromCounts with the batch path.
func (t *OptTracker) bounds() lowerbound.Bounds {
	return lowerbound.FromCounts(int(t.maxServes), t.unique, t.q)
}

// Bounds returns the current streaming lower bound.
func (t *OptTracker) Bounds() lowerbound.Bounds { return t.bounds() }

// Ratio returns the current competitive-ratio estimate: the last
// observed tick over the streaming lower bound.
func (t *OptTracker) Ratio() float64 { return lowerbound.Ratio(t.lastTick, t.bounds()) }

// Serves returns the cumulative serve count.
func (t *OptTracker) Serves() uint64 { return t.serves }

// UniquePages returns the cumulative distinct-page count.
func (t *OptTracker) UniquePages() int { return t.unique }

// snapshotAt builds the windowed point for the given tick. The curve
// queries are O(cores * log^2 n) and run once per window, not per tick.
func (t *OptTracker) snapshotAt(tick model.Tick, b lowerbound.Bounds) OptPoint {
	t.curves = t.curves[:0]
	for _, s := range t.builders {
		t.curves = append(t.curves, s.Curve)
	}
	var missRatio float64
	if t.serves > 0 {
		missRatio = float64(stackdist.EvenPartition(t.curves, t.k)) / float64(t.serves)
	}
	return OptPoint{
		Tick:        tick,
		Serves:      t.serves,
		UniquePages: t.unique,
		LowerBound:  b.Makespan,
		Ratio:       lowerbound.Ratio(tick, b),
		MissRatio:   missRatio,
		P90Distance: stackdist.DistanceQuantile(t.curves, 0.9),
	}
}

// Snapshot returns the live point at the last observed tick (the state
// the gauges currently show), whether or not a window boundary has been
// reached.
func (t *OptTracker) Snapshot() OptPoint { return t.snapshotAt(t.lastTick, t.bounds()) }

// Points returns the closed windowed snapshots in tick order. The slice
// is the tracker's own storage; treat it as read-only.
func (t *OptTracker) Points() []OptPoint { return t.points }

// Series returns the run's optimality series: the closed windows, plus
// the live point when the run ended mid-window.
func (t *OptTracker) Series() []OptPoint {
	pts := t.points
	if n := len(pts); t.lastTick > 0 && (n == 0 || pts[n-1].Tick != t.lastTick) {
		pts = append(pts[:n:n], t.Snapshot())
	}
	return pts
}

// WriteCSV writes one row per point of Series, so the optimality series
// can be plotted alongside a Timeline CSV.
func (t *OptTracker) WriteCSV(out io.Writer) error {
	bw := newErrWriter(out)
	bw.writeString("tick,serves,unique_pages,lower_bound,competitive_ratio,miss_ratio,p90_stack_distance\n")
	for _, p := range t.Series() {
		fmt.Fprintf(bw, "%d,%d,%d,%d,%.6g,%.6g,%d\n",
			p.Tick, p.Serves, p.UniquePages, uint64(p.LowerBound), p.Ratio, p.MissRatio, p.P90Distance)
	}
	return bw.flush()
}
