package experiments

import (
	"fmt"

	"hbmsim/internal/report"
	"hbmsim/internal/sweep"
)

// ablVariance measures seed sensitivity: the headline FIFO/Priority ratios
// are re-run with several independent seeds (fresh policy randomness; the
// workload is regenerated per replica through the simulator's seed
// offsets only for randomised policies) and reported as mean ± stddev.
// A reproduction whose conclusions flip with the seed would be worthless;
// this experiment shows they do not.
func ablVariance(o Options) (*Outcome, error) {
	wl, err := spgemmWorkload(o)
	if err != nil {
		return nil, err
	}
	p := o.TradeoffThreads
	sub := wl.Subset(p)
	k := tradeoffSlots(o)
	const replicas = 8

	jobs := []sweep.Job{
		{Name: "FIFO", Config: fifoConfig(o.Channels)(k, o.Seed), Workload: sub},
		{Name: "Priority", Config: priorityConfig(o.Channels)(k, o.Seed), Workload: sub},
		{Name: "Dynamic T=10k", Config: dynamicConfig(o.Channels, o.DynamicT)(k, o.Seed), Workload: sub},
		{Name: "Random", Config: randomConfig(o.Channels)(k, o.Seed), Workload: sub},
	}
	rows := o.runReplicated(jobs, replicas)
	for _, r := range rows {
		if r.Err != nil {
			return nil, fmt.Errorf("experiments: variance job %q: %w", r.Job.Name, r.Err)
		}
	}
	tbl := report.NewTable(
		fmt.Sprintf("Seed sensitivity over %d replicas on %s (p=%d, k=%d)", replicas, sub.Name, p, k),
		"policy", "makespan mean", "makespan stddev", "rel. stddev", "inconsistency mean")
	var maxRel float64
	for _, r := range rows {
		rel := 0.0
		if m := r.Makespan.Mean(); m > 0 {
			rel = r.Makespan.StddevPop() / m
		}
		if rel > maxRel {
			maxRel = rel
		}
		tbl.AddRow(r.Job.Name, r.Makespan.Mean(), r.Makespan.StddevPop(), rel, r.Inconsistency.Mean())
	}
	// The headline comparison, with uncertainty.
	ratio := rows[0].Makespan.Mean() / rows[1].Makespan.Mean()
	return &Outcome{
		ID:    "variance",
		Title: "Analysis: seed sensitivity of the headline comparison",
		PaperClaim: "the paper reports single runs; its conclusions (who wins, by what factor) must be robust to " +
			"the randomness in Dynamic Priority and in the workloads",
		Headline: fmt.Sprintf("FIFO/Priority mean ratio %.2fx; worst relative makespan stddev across policies %.2f%%",
			ratio, 100*maxRel),
		Tables: []*report.Table{tbl},
	}, nil
}
