package experiments

import (
	"fmt"

	"hbmsim/internal/report"
	"hbmsim/internal/sweep"
	"hbmsim/internal/workloads"
)

// figure3 reproduces Figure 3: FIFO vs Priority on the adversarial cyclic
// trace (1..256 repeated 100 times per thread) with HBM sized to a quarter
// of the total unique pages. FIFO misses every reference; Priority starves
// low-priority threads instead and finishes far sooner, with the gap
// growing roughly linearly in the thread count (up to 40x in the paper).
func figure3(o Options) (*Outcome, error) {
	cfg := workloads.AdversarialConfig{Pages: 256, Reps: 100}

	var jobs []sweep.Job
	var ps []int
	for _, p := range o.Threads {
		if p < 4 {
			continue // k = p*256/4 must hold at least one cycle's worth
		}
		wl, err := workloads.AdversarialWorkload(p, cfg)
		if err != nil {
			return nil, err
		}
		k := workloads.AdversarialHBMSlots(p, cfg)
		seed := o.Seed + int64(p)
		jobs = append(jobs,
			sweep.Job{Name: fmt.Sprintf("FIFO p=%d", p), Config: fifo.config(o, k, seed), Workload: wl},
			sweep.Job{Name: fmt.Sprintf("Priority p=%d", p), Config: priority.config(o, k, seed+1), Workload: wl},
		)
		ps = append(ps, p)
	}
	if len(ps) == 0 {
		return nil, fmt.Errorf("experiments: fig3 needs a thread count >= 4 in the axis")
	}
	rows := o.run(jobs)
	if err := sweep.FirstError(rows); err != nil {
		return nil, err
	}

	tbl := report.NewTable(
		"Adversarial trace (1..256 x100), HBM = 1/4 of unique pages, q=1",
		"threads", "k", "FIFO makespan", "Priority makespan", "ratio", "FIFO hitrate", "Priority hitrate")
	var series report.Series
	series.Name = "FIFO/Priority"
	maxRatio, atP := 0.0, 0
	for i, p := range ps {
		f := rows[2*i].Result
		pr := rows[2*i+1].Result
		r := float64(f.Makespan) / float64(pr.Makespan)
		k := workloads.AdversarialHBMSlots(p, cfg)
		tbl.AddRow(p, k, uint64(f.Makespan), uint64(pr.Makespan), r, f.HitRate(), pr.HitRate())
		series.X = append(series.X, float64(p))
		series.Y = append(series.Y, r)
		if r > maxRatio {
			maxRatio, atP = r, p
		}
	}
	return &Outcome{
		ID:    "fig3",
		Title: "Figure 3: FIFO vs Priority on the FIFO-adversarial trace",
		PaperClaim: "FIFO's makespan is up to 40x Priority's, scaling linearly with thread count; " +
			"FIFO never hits (every page is evicted before reuse), Priority hits often",
		Headline:   fmt.Sprintf("FIFO/Priority ratio reaches %.1fx at p=%d and grows with p", maxRatio, atP),
		Tables:     []*report.Table{tbl},
		Series:     []report.Series{series},
		ChartTitle: "FIFO/Priority makespan ratio vs threads (adversarial)",
	}, nil
}
