package experiments

import (
	"fmt"

	"hbmsim/internal/model"
	"hbmsim/internal/report"
	"hbmsim/internal/sweep"
	"hbmsim/internal/telemetry"
)

// timelineExperiment makes the paper's starvation story visible in time:
// on the SpGEMM traces (the Table 1 setting), FIFO serves cores
// round-robin so every window is fair, static Priority starves the
// low-priority cores for long stretches (per-window fairness collapses
// and stays collapsed), and Dynamic Priority's periodic remaps lift the
// fairness floor while keeping Priority's makespan. The windowed Jain
// index per policy is the chartable signal. (The adversarial trace is
// the wrong stage for this story: its disjoint cyclic working sets let a
// resident cohort hit without ever entering the DRAM queue, so remaps
// cannot reach it and Dynamic degenerates to Priority.)
func timelineExperiment(o Options) (*Outcome, error) {
	p, k := o.TradeoffThreads, o.TradeoffSlots
	wl, err := spgemmWorkload(o, p)
	if err != nil {
		return nil, err
	}
	// Dynamic remaps every T = k ticks (the shortest interval in the
	// paper's Figure 5 sweep) and each window spans ten remap periods:
	// within one period a single permutation picks the channel winners,
	// so a window this wide separates "the same cores hogged the channel
	// all run" (static Priority, fairness stays collapsed) from "the
	// winners rotated every period" (Dynamic, fairness recovers).
	window := 10 * model.Tick(k)

	schemes := []scheme{fifo, priority, dynamic(1).named("Dynamic T=1k")}

	tbl := report.NewTable(
		fmt.Sprintf("Windowed fairness on %s (p=%d, k=%d, q=%d, window=%d ticks)",
			wl.Name, p, k, o.Channels, window),
		"policy", "makespan", "windows", "min fairness", "mean fairness", "max serve gap")
	var series []report.Series
	meanFair := make(map[string]float64, len(schemes))
	for i, sc := range schemes {
		tl := telemetry.NewTimeline(window, p, o.Channels)
		job := sweep.Job{Name: sc.name, Config: sc.config(o, k, o.Seed+int64(i)), Workload: wl}
		res, err := o.runObserved(job, tl)
		if err != nil {
			return nil, err
		}
		lo, sum := 1.0, 0.0
		wins := tl.Windows()
		for i := range wins {
			f := wins[i].JainFairness()
			if f < lo {
				lo = f
			}
			sum += f
		}
		mean := 0.0
		if len(wins) > 0 {
			mean = sum / float64(len(wins))
		}
		meanFair[sc.name] = mean
		tbl.AddRow(sc.name, uint64(res.Makespan), len(wins), lo, mean, uint64(res.MaxServeGap))
		series = append(series, report.TimelineSeries(sc.name, tl))
	}

	return &Outcome{
		ID:    "timeline",
		Title: "Timeline: windowed fairness of FIFO vs (Dynamic) Priority",
		PaperClaim: "Priority trades FIFO's uniform slowness for starvation bursts; " +
			"Dynamic Priority's remaps smooth response times over windows of T ticks",
		Headline: fmt.Sprintf("mean per-window Jain fairness: FIFO %.3f, Priority %.3f, Dynamic %.3f",
			meanFair["FIFO"], meanFair["Priority"], meanFair[schemes[2].name]),
		Tables:     []*report.Table{tbl},
		Series:     series,
		ChartTitle: fmt.Sprintf("Per-window Jain fairness index vs ticks (%s)", wl.Name),
	}, nil
}
