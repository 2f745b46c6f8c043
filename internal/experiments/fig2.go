package experiments

import (
	"fmt"
	"slices"

	"hbmsim/internal/report"
	"hbmsim/internal/trace"
)

// figure2 is the shared implementation of Figures 2a/2b: FIFO vs static
// Priority across thread counts and HBM sizes.
func figure2(id, dataset string, o Options, wl *trace.Workload, claim string) (*Outcome, error) {
	tbl, series, ext, err := ratioStudy(o, wl, fifo, priority)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		ID:         id,
		Title:      fmt.Sprintf("Figure %s: FIFO vs Priority makespan on %s", id[3:], dataset),
		PaperClaim: claim,
		Headline:   ext.headline("FIFO", "Priority"),
		Tables:     []*report.Table{tbl},
		Series:     series,
		ChartTitle: fmt.Sprintf("FIFO/Priority makespan ratio vs threads (%s)", dataset),
	}, nil
}

func figure2a(o Options) (*Outcome, error) {
	wl, err := spgemmWorkload(o, slices.Max(o.Threads))
	if err != nil {
		return nil, err
	}
	return figure2("fig2a", "SpGEMM", o, wl,
		"FIFO up to 3.3x worse at high thread counts; Priority up to 1.33x worse at low thread counts")
}

func figure2b(o Options) (*Outcome, error) {
	wl, err := sortWorkload(o, slices.Max(o.Threads))
	if err != nil {
		return nil, err
	}
	return figure2("fig2b", "GNU sort", o, wl,
		"FIFO up to 1.2x worse at high thread counts; Priority up to 1.37x worse at low thread counts")
}

// figure4 is the shared implementation of Figures 4a/4b: FIFO vs Dynamic
// Priority with T = DynamicT * k.
func figure4(id, dataset string, o Options, wl *trace.Workload, claim string) (*Outcome, error) {
	tbl, series, ext, err := ratioStudy(o, wl, fifo, dynamic(o.DynamicT).named("DynamicPriority"))
	if err != nil {
		return nil, err
	}
	return &Outcome{
		ID:         id,
		Title:      fmt.Sprintf("Figure %s: FIFO vs Dynamic Priority (T=%gk) on %s", id[3:], o.DynamicT, dataset),
		PaperClaim: claim,
		Headline:   ext.headline("FIFO", "DynamicPriority"),
		Tables:     []*report.Table{tbl},
		Series:     series,
		ChartTitle: fmt.Sprintf("FIFO/DynamicPriority makespan ratio vs threads (%s)", dataset),
	}, nil
}

func figure4a(o Options) (*Outcome, error) {
	wl, err := spgemmWorkload(o, slices.Max(o.Threads))
	if err != nil {
		return nil, err
	}
	return figure4("fig4a", "SpGEMM", o, wl,
		"randomized remapping mitigates FIFO's low-thread-count advantage: Dynamic Priority is as good as or better than FIFO everywhere")
}

func figure4b(o Options) (*Outcome, error) {
	wl, err := sortWorkload(o, slices.Max(o.Threads))
	if err != nil {
		return nil, err
	}
	return figure4("fig4b", "GNU sort", o, wl,
		"randomized remapping mitigates FIFO's low-thread-count advantage: Dynamic Priority is as good as or better than FIFO everywhere")
}
