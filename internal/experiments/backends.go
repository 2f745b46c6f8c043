package experiments

import (
	"fmt"

	"hbmsim/internal/membackend"
	"hbmsim/internal/report"
	"hbmsim/internal/sweep"
)

// extBackends runs the same workload under each registered far-memory
// backend (see internal/membackend): the paper's one-tick-per-transfer
// reference channel, a bandwidth/latency channel, and a hybrid fast/slow
// two-tier memory with write asymmetry. The arbitration comparison is
// repeated per backend, so the table shows both how much a realistic
// memory model costs and whether the paper's policy ordering survives
// it.
func extBackends(o Options) (*Outcome, error) {
	wl, err := spgemmWorkload(o)
	if err != nil {
		return nil, err
	}
	p := o.TradeoffThreads
	sub := wl.Subset(p)
	k := tradeoffSlots(o)

	backends := []struct {
		name string
		cfg  membackend.Config
	}{
		{"reference", membackend.Config{Kind: membackend.Reference}},
		{"bandwidth", membackend.Config{Kind: membackend.Bandwidth}},
		{"hybrid", membackend.Config{Kind: membackend.Hybrid}},
	}
	var jobs []sweep.Job
	for i, be := range backends {
		seed := o.Seed + int64(400+2*i)
		fifoCfg := fifoConfig(o.Channels)(k, seed)
		fifoCfg.Backend = be.cfg
		prioCfg := priorityConfig(o.Channels)(k, seed+1)
		prioCfg.Backend = be.cfg
		jobs = append(jobs,
			sweep.Job{Name: fmt.Sprintf("FIFO %s", be.name), Config: fifoCfg, Workload: sub},
			sweep.Job{Name: fmt.Sprintf("Priority %s", be.name), Config: prioCfg, Workload: sub},
		)
	}
	rows := o.run(jobs)
	if err := sweep.FirstError(rows); err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Memory-backend comparison on %s (p=%d, k=%d, q=%d)", sub.Name, p, k, o.Channels),
		"backend", "FIFO makespan", "Priority makespan", "FIFO/Priority", "FIFO resp mean", "channel util")
	var refRatio, rMin, rMax float64
	rMin = 1e18
	var refMakespan, slowest uint64
	for i, be := range backends {
		f, pr := rows[2*i].Result, rows[2*i+1].Result
		r := safeDiv(float64(f.Makespan), float64(pr.Makespan))
		tbl.AddRow(be.name, uint64(f.Makespan), uint64(pr.Makespan), r, f.ResponseMean, f.ChannelUtilization)
		if be.name == "reference" {
			refRatio = r
			refMakespan = uint64(f.Makespan)
		}
		if uint64(f.Makespan) > slowest {
			slowest = uint64(f.Makespan)
		}
		if r > rMax {
			rMax = r
		}
		if r < rMin {
			rMin = r
		}
	}
	return &Outcome{
		ID:    "backends",
		Title: "Extension: composable far-memory backends",
		PaperClaim: "the model prices every block transfer at one tick; realistic far memories (finite bandwidth, " +
			"tiered DRAM+NVM with write asymmetry) stretch transfers without changing the queuing-policy story",
		Headline: fmt.Sprintf("slowest backend costs %.1fx the reference makespan; FIFO/Priority ratio stays in [%.2f, %.2f] (%.2f on the reference model)",
			safeDiv(float64(slowest), float64(refMakespan)), rMin, rMax, refRatio),
		Tables: []*report.Table{tbl},
	}, nil
}
