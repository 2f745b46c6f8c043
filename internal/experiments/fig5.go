package experiments

import (
	"fmt"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/report"
	"hbmsim/internal/sweep"
	"hbmsim/internal/trace"
)

// tradeoffRun executes every scheme on the workload at the tradeoff
// point: TradeoffThreads cores on TradeoffSlots slots.
func tradeoffRun(o Options, wl *trace.Workload) ([]scheme, []sweep.Row, error) {
	schemes := tradeoffSchemes(o)
	jobs := make([]sweep.Job, len(schemes))
	for i, sc := range schemes {
		jobs[i] = sweep.Job{Name: sc.name, Config: sc.config(o, o.TradeoffSlots, o.Seed+int64(100+i)), Workload: wl}
	}
	rows := o.run(jobs)
	if err := sweep.FirstError(rows); err != nil {
		return nil, nil, err
	}
	return schemes, rows, nil
}

// figure5 reproduces Figure 5: the inconsistency/makespan trade-off across
// permutation schemes and intervals.
func figure5(id, dataset string, o Options, wl *trace.Workload) (*Outcome, error) {
	schemes, rows, err := tradeoffRun(o, wl)
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Scheme and T vs inconsistency and makespan on %s (p=%d, k=%d)", dataset, o.TradeoffThreads, o.TradeoffSlots),
		"scheme", "T/k", "makespan", "inconsistency")
	series := []report.Series{
		{Name: "FIFO"}, {Name: "Dynamic"}, {Name: "Cycle"}, {Name: "Priority"},
	}
	var fifoMk, prioMk float64
	var prioInc, bestDynInc float64
	bestDynInc = -1
	for i, sc := range schemes {
		res := rows[i].Result
		tbl.AddRow(sc.name, sc.tMult, uint64(res.Makespan), res.Inconsistency)
		var si int
		switch {
		case sc.kind == arbiter.FIFO:
			si = 0
			fifoMk = float64(res.Makespan)
		case sc.perm == arbiter.Dynamic:
			si = 1
			if o.DynamicT == sc.tMult || bestDynInc < 0 {
				bestDynInc = res.Inconsistency
			}
		case sc.perm == arbiter.Cycle:
			si = 2
		default:
			si = 3
			prioMk = float64(res.Makespan)
			prioInc = res.Inconsistency
		}
		series[si].X = append(series[si].X, res.Inconsistency)
		series[si].Y = append(series[si].Y, float64(res.Makespan))
	}
	headline := fmt.Sprintf(
		"Priority: makespan %.0f, inconsistency %.0f; FIFO: makespan %.0f; Dynamic T=%gk cuts inconsistency to %.0f (%.1fx lower than Priority)",
		prioMk, prioInc, fifoMk, o.DynamicT, bestDynInc, safeDiv(prioInc, bestDynInc))
	return &Outcome{
		ID:    id,
		Title: fmt.Sprintf("Figure %s: effect of scheme and T on inconsistency (%s)", id[3:], dataset),
		PaperClaim: "FIFO has the highest makespan; Priority has the highest inconsistency; for T in ~10k-100k the " +
			"permuting schemes keep Priority's makespan at an order of magnitude lower inconsistency",
		Headline:   headline,
		Tables:     []*report.Table{tbl},
		Series:     series,
		ChartTitle: fmt.Sprintf("makespan (y) vs inconsistency (x), %s", dataset),
	}, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func figure5a(o Options) (*Outcome, error) {
	wl, err := spgemmWorkload(o, o.TradeoffThreads)
	if err != nil {
		return nil, err
	}
	return figure5("fig5a", "SpGEMM", o, wl)
}

func figure5b(o Options) (*Outcome, error) {
	wl, err := sortWorkload(o, o.TradeoffThreads)
	if err != nil {
		return nil, err
	}
	return figure5("fig5b", "GNU sort", o, wl)
}

// table1 reproduces Table 1: inconsistency and average response time per
// queuing policy.
func table1(id, dataset string, o Options, wl *trace.Workload) (*Outcome, error) {
	schemes, rows, err := tradeoffRun(o, wl)
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Inconsistency and average response time on %s (p=%d, k=%d)", dataset, o.TradeoffThreads, o.TradeoffSlots),
		"Queuing Policy", "Inconsistency", "Response Time")
	var fifoResp, prioResp, fifoInc, prioInc float64
	for i, sc := range schemes {
		res := rows[i].Result
		tbl.AddRow(sc.name, res.Inconsistency, res.ResponseMean)
		switch sc.name {
		case "FIFO":
			fifoResp, fifoInc = res.ResponseMean, res.Inconsistency
		case "Priority":
			prioResp, prioInc = res.ResponseMean, res.Inconsistency
		}
	}
	return &Outcome{
		ID:    id,
		Title: fmt.Sprintf("Table %s: inconsistency and average response time (%s)", id[5:], dataset),
		PaperClaim: "FIFO has the lowest inconsistency and the highest average response time; Priority has the " +
			"highest inconsistency and the lowest average response time; more frequent permutation moves between them",
		Headline: fmt.Sprintf("FIFO: inconsistency %.1f, response %.2f; Priority: inconsistency %.1f, response %.2f",
			fifoInc, fifoResp, prioInc, prioResp),
		Tables: []*report.Table{tbl},
	}, nil
}

func table1a(o Options) (*Outcome, error) {
	wl, err := spgemmWorkload(o, o.TradeoffThreads)
	if err != nil {
		return nil, err
	}
	return table1("table1a", "SpGEMM", o, wl)
}

func table1b(o Options) (*Outcome, error) {
	wl, err := sortWorkload(o, o.TradeoffThreads)
	if err != nil {
		return nil, err
	}
	return table1("table1b", "GNU sort", o, wl)
}
