package experiments

import (
	"fmt"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/core"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
	"hbmsim/internal/report"
	"hbmsim/internal/trace"
)

// fifoConfig is plain FCFS+LRU.
func fifoConfig(q int) func(k int, seed int64) core.Config {
	return func(k int, seed int64) core.Config {
		return core.Config{
			HBMSlots:    k,
			Channels:    q,
			Arbiter:     arbiter.FIFO,
			Replacement: replacement.LRU,
			Seed:        seed,
		}
	}
}

// priorityConfig is static Priority+LRU.
func priorityConfig(q int) func(k int, seed int64) core.Config {
	return func(k int, seed int64) core.Config {
		return core.Config{
			HBMSlots:    k,
			Channels:    q,
			Arbiter:     arbiter.Priority,
			Permuter:    arbiter.Static,
			Replacement: replacement.LRU,
			Seed:        seed,
		}
	}
}

// dynamicConfig is Dynamic Priority+LRU with T = mult*k.
func dynamicConfig(q int, mult float64) func(k int, seed int64) core.Config {
	return func(k int, seed int64) core.Config {
		return core.Config{
			HBMSlots:    k,
			Channels:    q,
			Arbiter:     arbiter.Priority,
			Permuter:    arbiter.Dynamic,
			RemapPeriod: model.Tick(mult * float64(k)),
			Replacement: replacement.LRU,
			Seed:        seed,
		}
	}
}

// figure2 is the shared implementation of Figures 2a/2b: FIFO vs static
// Priority across thread counts and HBM sizes.
func figure2(id, dataset string, o Options, wl *trace.Workload, claim string) (*Outcome, error) {
	st := ratioStudy{
		base:     fifoConfig(o.Channels),
		comp:     priorityConfig(o.Channels),
		baseName: "FIFO",
		compName: "Priority",
	}
	tbl, series, ext, err := st.run(o, wl)
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
	wl, err := spgemmWorkload(o)
	if err != nil {
		return nil, err
	}
	return figure2("fig2a", "SpGEMM", o, wl,
		"FIFO up to 3.3x worse at high thread counts; Priority up to 1.33x worse at low thread counts")
}

func figure2b(o Options) (*Outcome, error) {
	wl, err := sortWorkload(o)
	if err != nil {
		return nil, err
	}
	return figure2("fig2b", "GNU sort", o, wl,
		"FIFO up to 1.2x worse at high thread counts; Priority up to 1.37x worse at low thread counts")
}

// figure4 is the shared implementation of Figures 4a/4b: FIFO vs Dynamic
// Priority with T = DynamicT * k.
func figure4(id, dataset string, o Options, wl *trace.Workload, claim string) (*Outcome, error) {
	st := ratioStudy{
		base:     fifoConfig(o.Channels),
		comp:     dynamicConfig(o.Channels, o.DynamicT),
		baseName: "FIFO",
		compName: "DynamicPriority",
	}
	tbl, series, ext, err := st.run(o, wl)
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
	wl, err := spgemmWorkload(o)
	if err != nil {
		return nil, err
	}
	return figure4("fig4a", "SpGEMM", o, wl,
		"randomized remapping mitigates FIFO's low-thread-count advantage: Dynamic Priority is as good as or better than FIFO everywhere")
}

func figure4b(o Options) (*Outcome, error) {
	wl, err := sortWorkload(o)
	if err != nil {
		return nil, err
	}
	return figure4("fig4b", "GNU sort", o, wl,
		"randomized remapping mitigates FIFO's low-thread-count advantage: Dynamic Priority is as good as or better than FIFO everywhere")
}

// randomConfig is the purely random arbiter (Dynamic Priority's T→1
// limit) with LRU.
func randomConfig(q int) func(k int, seed int64) core.Config {
	return func(k int, seed int64) core.Config {
		return core.Config{
			HBMSlots:    k,
			Channels:    q,
			Arbiter:     arbiter.Random,
			Replacement: replacement.LRU,
			Seed:        seed,
		}
	}
}
