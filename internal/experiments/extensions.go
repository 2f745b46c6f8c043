package experiments

import (
	"fmt"

	"hbmsim/internal/core"
	"hbmsim/internal/lowerbound"
	"hbmsim/internal/replacement"
	"hbmsim/internal/report"
	"hbmsim/internal/stackdist"
	"hbmsim/internal/sweep"
	"hbmsim/internal/trace"
	"hbmsim/internal/workloads"
)

// ablMapping verifies Corollary 1 in the main simulator: a direct-mapped
// HBM a constant factor larger performs within a constant factor of the
// fully-associative HBM, under both arbiters.
func ablMapping(o Options) (*Outcome, error) {
	p, k := o.TradeoffThreads, o.TradeoffSlots
	wl, err := spgemmWorkload(o, p)
	if err != nil {
		return nil, err
	}

	type variant struct {
		name    string
		mapping core.Mapping
		slots   int
	}
	variants := []variant{
		{"associative k", core.MappingAssociative, k},
		{"direct-mapped k", core.MappingDirect, k},
		{"direct-mapped 2k", core.MappingDirect, 2 * k},
		{"direct-mapped 4k", core.MappingDirect, 4 * k},
	}
	arbs := []scheme{fifo, priority}
	var jobs []sweep.Job
	for _, sc := range arbs {
		for i, v := range variants {
			cfg := sc.config(o, v.slots, o.Seed+int64(i))
			cfg.Mapping = v.mapping
			jobs = append(jobs, sweep.Job{Name: fmt.Sprintf("%s/%s", sc.kind, v.name), Config: cfg, Workload: wl})
		}
	}
	rows := o.run(jobs)
	if err := sweep.FirstError(rows); err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Associative vs direct-mapped HBM on %s (p=%d, base k=%d, q=%d)", wl.Name, p, k, o.Channels),
		"arbiter", "organisation", "slots", "makespan", "hitrate", "vs assoc")
	var worst4x float64
	i := 0
	for range arbs {
		base := rows[i].Result
		for vi, v := range variants {
			res := rows[i].Result
			rel := float64(res.Makespan) / float64(base.Makespan)
			tbl.AddRow(rows[i].Job.Config.Arbiter, v.mapping, v.slots, uint64(res.Makespan), res.HitRate(), rel)
			if vi == len(variants)-1 && rel > worst4x {
				worst4x = rel
			}
			i++
		}
	}
	return &Outcome{
		ID:    "mapping",
		Title: "Ablation: fully-associative vs direct-mapped HBM (Corollary 1)",
		PaperClaim: "one can achieve O(1)-competitive makespan with a direct-mapped HBM versus a fully-associative " +
			"HBM when q = O(1), given a constant-factor larger cache",
		Headline: fmt.Sprintf("4x-larger direct-mapped HBM runs within %.2fx of the associative makespan", worst4x),
		Tables:   []*report.Table{tbl},
	}, nil
}

// ablOffline compares every online policy against the clairvoyant Belady
// baseline and the makespan lower bound, estimating empirical competitive
// ratios (Theorems 1-2's subject matter).
func ablOffline(o Options) (*Outcome, error) {
	p, k := o.TradeoffThreads, o.TradeoffSlots
	wl, err := spgemmWorkload(o, p)
	if err != nil {
		return nil, err
	}
	bounds := lowerbound.Compute(wl, k, o.Channels)

	type pol struct {
		name string
		sc   scheme
		repl replacement.Kind
	}
	pols := []pol{
		{"FIFO+LRU", fifo, replacement.LRU},
		{"Priority+LRU", priority, replacement.LRU},
		{"FIFO+Belady", fifo, replacement.Belady},
		{"Priority+Belady", priority, replacement.Belady},
	}
	jobs := make([]sweep.Job, len(pols))
	for i, pl := range pols {
		cfg := pl.sc.config(o, k, o.Seed+int64(i))
		cfg.Replacement = pl.repl
		jobs[i] = sweep.Job{Name: pl.name, Config: cfg, Workload: wl}
	}
	rows := o.run(jobs)
	if err := sweep.FirstError(rows); err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Online policies vs the clairvoyant baseline on %s (p=%d, k=%d, q=%d; LB=%d)",
			wl.Name, p, k, o.Channels, bounds.Makespan),
		"policy", "makespan", "hitrate", "makespan/LB")
	var prioRatio, fifoRatio float64
	for i, pl := range pols {
		res := rows[i].Result
		ratio := lowerbound.Ratio(res.Makespan, bounds)
		tbl.AddRow(pl.name, uint64(res.Makespan), res.HitRate(), ratio)
		switch pl.name {
		case "Priority+LRU":
			prioRatio = ratio
		case "FIFO+LRU":
			fifoRatio = ratio
		}
	}
	return &Outcome{
		ID:    "offline",
		Title: "Ablation: online policies vs clairvoyant replacement and the makespan lower bound",
		PaperClaim: "Priority+LRU is O(1)-competitive (Theorem 1) while FCFS+LRU can be Θ(p/ds) from optimal " +
			"(Theorem 2); clairvoyant replacement tightens the baseline",
		Headline: fmt.Sprintf("empirical competitive ratios: Priority+LRU %.2f, FIFO+LRU %.2f", prioRatio, fifoRatio),
		Tables:   []*report.Table{tbl},
	}, nil
}

// ablAugmentation reproduces Theorem 2's augmentation setting: FIFO with
// d-fold memory and s-fold bandwidth augmentation against the
// un-augmented Priority baseline. The theorem says FIFO's gap shrinks only
// linearly in d*s — augmentation helps, but cannot buy back the policy
// gap at once.
func ablAugmentation(o Options) (*Outcome, error) {
	cfg := workloads.AdversarialConfig{Pages: 256, Reps: 50}
	p := o.TradeoffThreads
	wl, err := workloads.AdversarialWorkload(p, cfg)
	if err != nil {
		return nil, err
	}
	k := workloads.AdversarialHBMSlots(p, cfg)

	type aug struct{ d, s int }
	augs := []aug{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {4, 1}, {1, 4}, {4, 4}}
	jobs := []sweep.Job{{Name: "Priority baseline", Config: priority.config(o, k, o.Seed), Workload: wl}}
	for i, a := range augs {
		cfg := fifo.config(o, a.d*k, o.Seed+int64(i+1))
		cfg.Channels = a.s * o.Channels
		jobs = append(jobs, sweep.Job{Name: fmt.Sprintf("FIFO d=%d s=%d", a.d, a.s), Config: cfg, Workload: wl})
	}
	rows := o.run(jobs)
	if err := sweep.FirstError(rows); err != nil {
		return nil, err
	}
	prio := rows[0].Result
	tbl := report.NewTable(
		fmt.Sprintf("FIFO with memory (d) and bandwidth (s) augmentation vs plain Priority (adversarial, p=%d, k=%d)", p, k),
		"policy", "slots", "channels", "makespan", "vs Priority")
	tbl.AddRow("Priority", k, o.Channels, uint64(prio.Makespan), 1.0)
	var plain, d2s2 float64
	for i, a := range augs {
		res := rows[i+1].Result
		rel := float64(res.Makespan) / float64(prio.Makespan)
		tbl.AddRow(fmt.Sprintf("FIFO d=%d s=%d", a.d, a.s), a.d*k, a.s*o.Channels, uint64(res.Makespan), rel)
		if a.d == 1 && a.s == 1 {
			plain = rel
		}
		if a.d == 2 && a.s == 2 {
			d2s2 = rel
		}
	}
	return &Outcome{
		ID:    "augmentation",
		Title: "Ablation: resource augmentation (Theorem 2's d and s)",
		PaperClaim: "even with d memory and s bandwidth augmentation, FCFS+LRU remains Θ(p/ds) from optimal: " +
			"the gap shrinks linearly in s (and in d only once the working set fits, the LRU cliff)",
		Headline: fmt.Sprintf("FIFO/Priority ratio %.1fx un-augmented, %.1fx at d=2,s=2 (the Θ(p/ds) linear shrink); "+
			"d=4 crosses the fit cliff and FIFO recovers entirely", plain, d2s2),
		Tables: []*report.Table{tbl},
	}, nil
}

// ablMissRatio computes Mattson miss-ratio curves for the two instrumented
// workloads and compares optimal static partitioning with the even split
// FIFO approximates — the analysis that explains Figure 2's crossovers.
func ablMissRatio(o Options) (*Outcome, error) {
	p := o.TradeoffThreads
	tbl := report.NewTable(
		fmt.Sprintf("LRU miss-ratio curves (per core) and static partitioning of k slots over p=%d cores", p),
		"workload", "k", "miss ratio (1 core)", "optimal-partition misses", "even-split misses", "even/optimal")
	var series []report.Series
	var worstEvenOpt float64
	for _, build := range []func(Options, int) (*trace.Workload, error){sortWorkload, spgemmWorkload} {
		wl, err := build(o, p)
		if err != nil {
			return nil, err
		}
		curves := make([]stackdist.Curve, len(wl.Traces))
		for i, tr := range wl.Traces {
			curves[i] = stackdist.CurveOf(tr)
		}
		s := report.Series{Name: wl.Name}
		for _, k := range o.HBMSlots {
			_, optMisses, err := stackdist.OptimalPartition(curves, k)
			if err != nil {
				return nil, err
			}
			evenMisses := stackdist.EvenPartition(curves, k)
			ratio := 0.0
			if optMisses > 0 {
				ratio = float64(evenMisses) / float64(optMisses)
			}
			if ratio > worstEvenOpt {
				worstEvenOpt = ratio
			}
			tbl.AddRow(wl.Name, k, curves[0].MissRatio(k), optMisses, evenMisses, ratio)
			s.X = append(s.X, float64(k))
			s.Y = append(s.Y, curves[0].MissRatio(k))
		}
		series = append(series, s)
	}
	return &Outcome{
		ID:    "missratio",
		Title: "Analysis: Mattson miss-ratio curves and static HBM partitioning",
		PaperClaim: "FIFO tends to spread HBM evenly and thinly among all processes ('butter scraped over too much " +
			"bread'); a good partitioning allocates HBM unevenly",
		Headline:   fmt.Sprintf("even splitting costs up to %.2fx the misses of utility-based partitioning", worstEvenOpt),
		Tables:     []*report.Table{tbl},
		Series:     series,
		ChartTitle: "single-core LRU miss ratio (y) vs HBM slots (x)",
	}, nil
}
