package experiments

import (
	"fmt"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/core"
	"hbmsim/internal/lowerbound"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
	"hbmsim/internal/report"
	"hbmsim/internal/telemetry"
)

// optGapStudy exercises the live optimality telemetry end to end: it
// runs FIFO, static Priority, and Dynamic Priority on the sort workload
// with an OptTracker attached, reports each policy's windowed
// competitive-ratio series, and checks that the streaming estimate
// converges to the batch lowerbound.Ratio at run end — the property the
// /metrics competitive_ratio gauge relies on.
func optGapStudy(o Options) (*Outcome, error) {
	wl, err := sortWorkload(o)
	if err != nil {
		return nil, err
	}
	k := tradeoffSlots(o)
	p := o.TradeoffThreads
	sub := wl.Subset(p)

	schemes := []scheme{
		{name: "FIFO", kind: arbiter.FIFO},
		{name: "Priority", kind: arbiter.Priority, perm: arbiter.Static},
		{name: fmt.Sprintf("Dynamic Priority T=%gk", o.DynamicT),
			tMult: o.DynamicT, kind: arbiter.Priority, perm: arbiter.Dynamic},
	}

	batch := lowerbound.Compute(sub, k, o.Channels)
	tbl := report.NewTable(
		fmt.Sprintf("Streaming vs batch optimality on %s (p=%d, k=%d, q=%d)", sub.Name, p, k, o.Channels),
		"scheme", "makespan", "lower bound", "live ratio", "batch ratio", "unique pages", "p90 dist", "miss ratio")
	var series []report.Series
	var headline string
	for i, sc := range schemes {
		if o.Ctx != nil && o.Ctx.Err() != nil {
			return nil, o.Ctx.Err()
		}
		cfg := core.Config{
			HBMSlots:    k,
			Channels:    o.Channels,
			Arbiter:     sc.kind,
			Permuter:    sc.perm,
			RemapPeriod: model.Tick(sc.tMult * float64(k)),
			Replacement: replacement.LRU,
			Seed:        o.Seed + int64(100+i),
		}
		sim, err := core.New(cfg, sub.Raw())
		if err != nil {
			return nil, err
		}
		tracker := telemetry.NewOptTracker(o.Metrics, sub.Cores(), k, o.Channels, model.Tick(o.OptGapWindow))
		sim.SetObserver(tracker)
		for sim.Step() {
		}
		res := sim.Result()

		live := tracker.Ratio()
		batchRatio := lowerbound.Ratio(res.Makespan, batch)
		final := tracker.Snapshot()
		tbl.AddRow(sc.name, uint64(res.Makespan), uint64(final.LowerBound),
			live, batchRatio, final.UniquePages, final.P90Distance, final.MissRatio)
		series = append(series, report.OptGapSeries(sc.name, tracker))
		if live != batchRatio {
			return nil, fmt.Errorf("optgap: %s: streaming ratio %.17g diverged from batch %.17g", sc.name, live, batchRatio)
		}
		if sc.kind == arbiter.Priority && sc.perm == arbiter.Static {
			headline = fmt.Sprintf("streaming ratio converges to the batch estimate for every policy; Priority ends at %.2fx the lower bound", live)
		}
	}

	return &Outcome{
		ID:         "optgap",
		Title:      "Live optimality telemetry: streaming competitive ratio vs the batch lower bound",
		PaperClaim: "Priority is O(1)-competitive for q=1 (Theorem 1): its makespan stays within a constant factor of the offline optimum",
		Headline:   headline,
		Tables:     []*report.Table{tbl},
		Series:     series,
		ChartTitle: fmt.Sprintf("Live competitive-ratio estimate over simulated time (p=%d, k=%d)", p, k),
	}, nil
}
