package experiments

import (
	"fmt"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
	"hbmsim/internal/report"
	"hbmsim/internal/sweep"
	"hbmsim/internal/trace"
	"hbmsim/internal/workloads"
)

// ablChannels sweeps the far-channel count q from 1 to 10 (the paper's
// "number of channels to DRAM (1-10)" dimension and the regime of
// Theorem 3's O(q) bound) for FIFO and Priority on SpGEMM.
func ablChannels(o Options) (*Outcome, error) {
	p, k := o.TradeoffThreads, o.TradeoffSlots
	wl, err := spgemmWorkload(o, p)
	if err != nil {
		return nil, err
	}

	var jobs []sweep.Job
	qs := []int{1, 2, 3, 4, 6, 8, 10}
	for _, q := range qs {
		seed := o.Seed + int64(q)
		fifoCfg := fifo.config(o, k, seed)
		fifoCfg.Channels = q
		prioCfg := priority.config(o, k, seed+1)
		prioCfg.Channels = q
		jobs = append(jobs,
			sweep.Job{Name: fmt.Sprintf("FIFO q=%d", q), Config: fifoCfg, Workload: wl},
			sweep.Job{Name: fmt.Sprintf("Priority q=%d", q), Config: prioCfg, Workload: wl},
		)
	}
	rows := o.run(jobs)
	if err := sweep.FirstError(rows); err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Far-channel count sweep on %s (p=%d, k=%d)", wl.Name, p, k),
		"q", "FIFO makespan", "Priority makespan", "ratio", "FIFO util", "Priority util")
	series := []report.Series{{Name: "FIFO"}, {Name: "Priority"}}
	var r1, rMax float64
	for i, q := range qs {
		f, pr := rows[2*i].Result, rows[2*i+1].Result
		r := float64(f.Makespan) / float64(pr.Makespan)
		tbl.AddRow(q, uint64(f.Makespan), uint64(pr.Makespan), r, f.ChannelUtilization, pr.ChannelUtilization)
		series[0].X = append(series[0].X, float64(q))
		series[0].Y = append(series[0].Y, float64(f.Makespan))
		series[1].X = append(series[1].X, float64(q))
		series[1].Y = append(series[1].Y, float64(pr.Makespan))
		if q == 1 {
			r1 = r
		}
		if r > rMax {
			rMax = r
		}
	}
	return &Outcome{
		ID:    "channels",
		Title: "Ablation: number of far channels q (1-10)",
		PaperClaim: "the model extends to q channels; Priority stays O(q)-competitive, and extra channels relieve " +
			"the far-channel bottleneck for both policies",
		Headline:   fmt.Sprintf("FIFO/Priority ratio %.2fx at q=1, max %.2fx; both makespans fall as q grows", r1, rMax),
		Tables:     []*report.Table{tbl},
		Series:     series,
		ChartTitle: "makespan (y) vs q (x)",
	}, nil
}

// ablReplacement compares LRU, FIFO, CLOCK, and Random replacement under
// both arbiters — the paper's theory keeps LRU throughout but names the
// classical alternatives (§2).
func ablReplacement(o Options) (*Outcome, error) {
	p, k := o.TradeoffThreads, o.TradeoffSlots
	wl, err := spgemmWorkload(o, p)
	if err != nil {
		return nil, err
	}

	var jobs []sweep.Job
	kinds := replacement.Kinds()
	arbs := []scheme{fifo, priority}
	for _, sc := range arbs {
		for _, rk := range kinds {
			cfg := sc.config(o, k, o.Seed+int64(len(jobs)))
			cfg.Replacement = rk
			jobs = append(jobs, sweep.Job{Name: fmt.Sprintf("%s+%s", sc.kind, rk), Config: cfg, Workload: wl})
		}
	}
	rows := o.run(jobs)
	if err := sweep.FirstError(rows); err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Replacement-policy ablation on %s (p=%d, k=%d, q=%d)", wl.Name, p, k, o.Channels),
		"arbiter", "replacement", "makespan", "hitrate", "inconsistency")
	i := 0
	var lruMk, worstMk float64
	for _, sc := range arbs {
		for _, rk := range kinds {
			res := rows[i].Result
			tbl.AddRow(string(sc.kind), string(rk), uint64(res.Makespan), res.HitRate(), res.Inconsistency)
			if sc.kind == arbiter.Priority && rk == replacement.LRU {
				lruMk = float64(res.Makespan)
			}
			if float64(res.Makespan) > worstMk {
				worstMk = float64(res.Makespan)
			}
			i++
		}
	}
	return &Outcome{
		ID:         "replacement",
		Title:      "Ablation: HBM replacement policy (LRU, FIFO, CLOCK, Random)",
		PaperClaim: "HBM replacement is not the problem: LRU and variants work well; arbitration makes the difference",
		Headline:   fmt.Sprintf("Priority+LRU makespan %.0f; worst cell %.0f (%.2fx) — replacement moves far less than arbitration", lruMk, worstMk, worstMk/lruMk),
		Tables:     []*report.Table{tbl},
	}, nil
}

// ablPermuters compares every permuter family at the recommended T.
func ablPermuters(o Options) (*Outcome, error) {
	p, k := o.TradeoffThreads, o.TradeoffSlots
	wl, err := spgemmWorkload(o, p)
	if err != nil {
		return nil, err
	}
	T := model.Tick(o.DynamicT * float64(k))

	perms := arbiter.PermuterKinds()
	jobs := make([]sweep.Job, len(perms))
	for i, pk := range perms {
		sc := scheme{name: string(pk), kind: arbiter.Priority, perm: pk, tMult: o.DynamicT}
		if pk == arbiter.Static {
			sc.tMult = 0
		}
		jobs[i] = sweep.Job{Name: sc.name, Config: sc.config(o, k, o.Seed+int64(i)), Workload: wl}
	}
	rows := o.run(jobs)
	if err := sweep.FirstError(rows); err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Permuter ablation on %s (p=%d, k=%d, T=%d)", wl.Name, p, k, T),
		"permuter", "makespan", "inconsistency", "response mean", "response max")
	var statInc, dynInc float64
	for i, pk := range perms {
		res := rows[i].Result
		tbl.AddRow(string(pk), uint64(res.Makespan), res.Inconsistency, res.ResponseMean, res.ResponseMax)
		switch pk {
		case arbiter.Static:
			statInc = res.Inconsistency
		case arbiter.Dynamic:
			dynInc = res.Inconsistency
		}
	}
	return &Outcome{
		ID:         "permuters",
		Title:      "Ablation: priority-permutation scheme (none/dynamic/cycle/cycle-reverse/interleave)",
		PaperClaim: "any periodic permutation slashes Priority's inconsistency; Dynamic is the most robust",
		Headline:   fmt.Sprintf("static inconsistency %.0f vs dynamic %.0f (%.1fx lower)", statInc, dynInc, safeDiv(statInc, dynInc)),
		Tables:     []*report.Table{tbl},
	}, nil
}

// ablImbalance studies asymmetric work: the paper notes Cycle Priority
// "continuously places the same thread behind the most demanding thread"
// on asymmetric workloads, while Dynamic Priority stays robust.
func ablImbalance(o Options) (*Outcome, error) {
	p, k := o.TradeoffThreads, o.TradeoffSlots
	balanced, err := spgemmWorkload(o, p)
	if err != nil {
		return nil, err
	}
	imbalanced, err := workloads.Imbalance(balanced, 0.2)
	if err != nil {
		return nil, err
	}
	T := model.Tick(o.DynamicT * float64(k))

	schemes := []scheme{dynamic(o.DynamicT).named("Dynamic Priority"), cycle(o.DynamicT).named("Cycle Priority")}
	var jobs []sweep.Job
	for i, sc := range schemes {
		for wi, w := range []*trace.Workload{balanced, imbalanced} {
			jobs = append(jobs, sweep.Job{
				Name:     fmt.Sprintf("%s/%s", sc.name, w.Name),
				Config:   sc.config(o, k, o.Seed+int64(10*i+wi)),
				Workload: w,
			})
		}
	}
	rows := o.run(jobs)
	if err := sweep.FirstError(rows); err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Balanced vs imbalanced work (p=%d, k=%d, T=%d)", p, k, T),
		"scheme", "workload", "makespan", "inconsistency", "response max")
	var dynMaxResp, cycMaxResp float64
	i := 0
	for _, sc := range schemes {
		for _, label := range []string{"balanced", "imbalanced"} {
			res := rows[i].Result
			tbl.AddRow(sc.name, label, uint64(res.Makespan), res.Inconsistency, res.ResponseMax)
			if label == "imbalanced" {
				if sc.perm == arbiter.Dynamic {
					dynMaxResp = res.ResponseMax
				} else {
					cycMaxResp = res.ResponseMax
				}
			}
			i++
		}
	}
	return &Outcome{
		ID:         "imbalance",
		Title:      "Ablation: asymmetric work across cores (Dynamic vs Cycle Priority)",
		PaperClaim: "with asymmetric work, Cycle Priority causes small amounts of starvation that Dynamic avoids",
		Headline:   fmt.Sprintf("imbalanced worst response: Dynamic %.0f vs Cycle %.0f", dynMaxResp, cycMaxResp),
		Tables:     []*report.Table{tbl},
	}, nil
}
