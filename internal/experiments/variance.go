package experiments

import (
	"fmt"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/report"
	"hbmsim/internal/stats"
	"hbmsim/internal/sweep"
)

// ablVariance measures seed sensitivity: the headline FIFO/Priority
// comparison and the two randomised schemes, each reported as mean ±
// stddev over replicas on independent seeds. Every replica runs on the
// same workload; only a scheme's random draws change with the seed, so
// FIFO and static Priority, which draw none, run once (one run's mean is
// its value and its stddev 0, as for any number of identical replicas).
// A reproduction whose conclusions flip with the seed would be
// worthless; this experiment shows they do not.
func ablVariance(o Options) (*Outcome, error) {
	p, k := o.TradeoffThreads, o.TradeoffSlots
	wl, err := spgemmWorkload(o, p)
	if err != nil {
		return nil, err
	}
	const replicas = 8

	schemes := []scheme{fifo, priority, dynamic(o.DynamicT).named(fmt.Sprintf("Dynamic T=%gk", o.DynamicT)), random}
	// runs[i] is how many jobs scheme i has; they follow each other in
	// replica order.
	runs := make([]int, len(schemes))
	var jobs []sweep.Job
	for i, sc := range schemes {
		// Only the Random arbiter and the Dynamic permuter draw from the
		// seed; any other scheme runs the same simulation on every seed.
		runs[i] = 1
		if sc.kind == arbiter.Random || sc.perm == arbiter.Dynamic {
			runs[i] = replicas
		}
		for r := range runs[i] {
			jobs = append(jobs, sweep.Job{Name: sc.name, Config: sc.config(o, k, replicaSeed(o.Seed, r)), Workload: wl})
		}
	}
	rows := o.run(jobs)
	if err := sweep.FirstError(rows); err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Seed sensitivity over %d replicas on %s (p=%d, k=%d)", replicas, wl.Name, p, k),
		"policy", "makespan mean", "makespan stddev", "rel. stddev", "inconsistency mean")
	var maxRel float64
	means := make([]float64, len(schemes))
	for i, sc := range schemes {
		var makespan, inconsistency stats.Welford
		for _, r := range rows[:runs[i]] {
			makespan.Add(float64(r.Result.Makespan))
			inconsistency.Add(r.Result.Inconsistency)
		}
		rows = rows[runs[i]:]
		means[i] = makespan.Mean()
		rel := 0.0
		if m := means[i]; m > 0 {
			rel = makespan.StddevPop() / m
		}
		if rel > maxRel {
			maxRel = rel
		}
		tbl.AddRow(sc.name, means[i], makespan.StddevPop(), rel, inconsistency.Mean())
	}
	// The headline comparison, with uncertainty.
	ratio := means[0] / means[1]
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

// replicaSeed derives replica r's seed from the base seed. Replica 0
// keeps the base seed (so a single-replica run is the plain run), and
// later replicas mix (base, r) through the SplitMix64 finalizer. The
// additive scheme this replaced (Seed + r*stride) let two jobs whose
// base seeds differ by a multiple of the stride silently share replica
// seeds — and could overflow int64 for large bases; the mix makes any
// collision across (base, r) pairs as unlikely as a 64-bit hash
// collision, and the simulator's internal +1..+4 seed offsets stay safe
// because the finalizer's avalanche separates nearby outputs.
func replicaSeed(base int64, r int) int64 {
	if r == 0 {
		return base
	}
	z := uint64(base) + uint64(r)*0x9E3779B97F4A7C15 // golden-ratio increment
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
