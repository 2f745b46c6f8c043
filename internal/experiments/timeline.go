package experiments

import (
	"fmt"

	"hbmsim/internal/core"
	"hbmsim/internal/model"
	"hbmsim/internal/report"
	"hbmsim/internal/telemetry"
)

// runTimeline executes one configuration with a Timeline collector
// attached and returns both the windowed series and the run summary.
func runTimeline(cfg core.Config, traces [][]model.PageID, window model.Tick) (*telemetry.Timeline, *core.Result, error) {
	s, err := core.New(cfg, traces)
	if err != nil {
		return nil, nil, err
	}
	tl := telemetry.NewTimeline(window, len(traces), cfg.Channels)
	s.SetObserver(tl)
	for s.Step() {
	}
	return tl, s.Result(), nil
}

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
	wl, err := spgemmWorkload(o)
	if err != nil {
		return nil, err
	}
	p := o.TradeoffThreads
	sub := wl.Subset(p)
	k := tradeoffSlots(o)
	// Dynamic remaps every T = k ticks (the shortest interval in the
	// paper's Figure 5 sweep) and each window spans ten remap periods:
	// within one period a single permutation picks the channel winners,
	// so a window this wide separates "the same cores hogged the channel
	// all run" (static Priority, fairness stays collapsed) from "the
	// winners rotated every period" (Dynamic, fairness recovers).
	window := 10 * model.Tick(k)

	runs := []struct {
		name string
		cfg  core.Config
	}{
		{"FIFO", fifoConfig(o.Channels)(k, o.Seed)},
		{"Priority", priorityConfig(o.Channels)(k, o.Seed+1)},
		{"Dynamic T=1k", dynamicConfig(o.Channels, 1)(k, o.Seed+2)},
	}

	tbl := report.NewTable(
		fmt.Sprintf("Windowed fairness on %s (p=%d, k=%d, q=%d, window=%d ticks)",
			sub.Name, p, k, o.Channels, window),
		"policy", "makespan", "windows", "min fairness", "mean fairness", "max serve gap")
	var series []report.Series
	meanFair := make(map[string]float64, len(runs))
	for _, r := range runs {
		tl, res, err := runTimeline(r.cfg, sub.Raw(), window)
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
		meanFair[r.name] = mean
		tbl.AddRow(r.name, uint64(res.Makespan), len(wins), lo, mean, uint64(res.MaxServeGap))
		series = append(series, report.TimelineSeries(r.name, tl))
	}

	return &Outcome{
		ID:    "timeline",
		Title: "Timeline: windowed fairness of FIFO vs (Dynamic) Priority",
		PaperClaim: "Priority trades FIFO's uniform slowness for starvation bursts; " +
			"Dynamic Priority's remaps smooth response times over windows of T ticks",
		Headline: fmt.Sprintf("mean per-window Jain fairness: FIFO %.3f, Priority %.3f, Dynamic %.3f",
			meanFair["FIFO"], meanFair["Priority"], meanFair[runs[2].name]),
		Tables:     []*report.Table{tbl},
		Series:     series,
		ChartTitle: fmt.Sprintf("Per-window Jain fairness index vs ticks (%s)", sub.Name),
	}, nil
}
