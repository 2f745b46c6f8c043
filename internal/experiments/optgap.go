package experiments

import (
	"fmt"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/lowerbound"
	"hbmsim/internal/model"
	"hbmsim/internal/report"
	"hbmsim/internal/sweep"
	"hbmsim/internal/telemetry"
)

// optGapStudy exercises the live optimality telemetry end to end: it
// runs FIFO, static Priority, and Dynamic Priority on the sort workload
// with an OptTracker attached, reports each policy's windowed
// competitive-ratio series, and checks that the streaming estimate
// converges to the batch lowerbound.Ratio at run end — the property the
// /metrics competitive_ratio gauge relies on.
func optGapStudy(o Options) (*Outcome, error) {
	p, k := o.TradeoffThreads, o.TradeoffSlots
	wl, err := sortWorkload(o, p)
	if err != nil {
		return nil, err
	}

	schemes := []scheme{fifo, priority, dynamic(o.DynamicT)}
	batch := lowerbound.Compute(wl, k, o.Channels)
	tbl := report.NewTable(
		fmt.Sprintf("Streaming vs batch optimality on %s (p=%d, k=%d, q=%d)", wl.Name, p, k, o.Channels),
		"scheme", "makespan", "lower bound", "live ratio", "batch ratio", "unique pages", "p90 dist", "miss ratio")
	var series []report.Series
	var headline string
	for i, sc := range schemes {
		tracker := telemetry.NewOptTracker(o.Metrics, wl.Cores(), k, o.Channels, model.Tick(o.OptGapWindow))
		job := sweep.Job{Name: sc.name, Config: sc.config(o, k, o.Seed+int64(100+i)), Workload: wl}
		res, err := o.runObserved(job, tracker)
		if err != nil {
			return nil, err
		}

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
