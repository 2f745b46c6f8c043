package experiments

import (
	"fmt"

	"hbmsim/internal/knl"
	"hbmsim/internal/report"
)

const (
	kib = uint64(1) << 10
	mib = uint64(1) << 20
	gib = uint64(1) << 30
)

func sizeLabel(b uint64) string {
	switch {
	case b >= gib:
		return fmt.Sprintf("%dGiB", b/gib)
	case b >= mib:
		return fmt.Sprintf("%dMiB", b/mib)
	default:
		return fmt.Sprintf("%dKiB", b/kib)
	}
}

// table2a reproduces Table 2a: pointer-chasing latency for flat DRAM, flat
// HBM, and cache mode across array sizes, on the calibrated KNL machine
// model (the hardware substitution — see DESIGN.md §2).
func table2a(o Options) (*Outcome, error) {
	m := knl.Default()
	tbl := report.NewTable(
		"Pointer-chasing latency on the KNL machine model (ns per update)",
		"Array Size", "DRAM (ns)", "HBM (ns)", "Cache (ns)")
	var d16, h16, dMax float64
	for b := 16 * mib; b <= 64*gib; b *= 2 {
		d, err := m.ChaseLatencyNS(b, knl.FlatDRAM)
		if err != nil {
			return nil, err
		}
		c, err := m.ChaseLatencyNS(b, knl.Cache)
		if err != nil {
			return nil, err
		}
		hCell := "-"
		if b <= m.HBMBytes/2 { // flat HBM can allocate at most half of HBM (paper stops at 8GiB)
			h, err := m.ChaseLatencyNS(b, knl.FlatHBM)
			if err != nil {
				return nil, err
			}
			hCell = fmt.Sprintf("%.1f", h)
			if b == 16*mib {
				h16 = h
			}
		}
		if b == 16*mib {
			d16 = d
		}
		dMax = d
		tbl.AddRow(sizeLabel(b), fmt.Sprintf("%.1f", d), hCell, fmt.Sprintf("%.1f", c))
	}
	return &Outcome{
		ID:    "table2a",
		Title: "Table 2a: pointer-chasing latency (DRAM, HBM, HBM-as-cache)",
		PaperClaim: "DRAM 168.9ns at 16MiB rising to 364.7ns at 64GiB; HBM ~24ns slower than DRAM; cache mode " +
			"slightly above HBM while fitting, rising to 489.6ns past HBM",
		Headline: fmt.Sprintf("model: DRAM %.1fns at 16MiB rising to %.1fns at 64GiB; HBM-DRAM gap %.1fns",
			d16, dMax, h16-d16),
		Tables: []*report.Table{tbl},
	}, nil
}

// table2b reproduces Table 2b: GLUPS bandwidth at 272 threads.
func table2b(o Options) (*Outcome, error) {
	m := knl.Default()
	tbl := report.NewTable(
		"GLUPS bandwidth on the KNL machine model, 272 threads (MiB/s)",
		"Array Size", "DRAM (MiB/s)", "HBM (MiB/s)", "Cache (MiB/s)")
	var dram8, hbm8, cache32 float64
	for b := 512 * mib; b <= 64*gib; b *= 2 {
		d, err := m.GLUPSBandwidthMiBs(b, m.Threads, knl.FlatDRAM)
		if err != nil {
			return nil, err
		}
		c, err := m.GLUPSBandwidthMiBs(b, m.Threads, knl.Cache)
		if err != nil {
			return nil, err
		}
		hCell := "-"
		if b <= m.HBMBytes/2 {
			h, err := m.GLUPSBandwidthMiBs(b, m.Threads, knl.FlatHBM)
			if err != nil {
				return nil, err
			}
			hCell = fmt.Sprintf("%.0f", h)
			if b == 8*gib {
				hbm8 = h
			}
		}
		if b == 8*gib {
			dram8 = d
		}
		if b == 32*gib {
			cache32 = c
		}
		tbl.AddRow(sizeLabel(b), fmt.Sprintf("%.0f", d), hCell, fmt.Sprintf("%.0f", c))
	}
	return &Outcome{
		ID:    "table2b",
		Title: "Table 2b: GLUPS bandwidth (DRAM, HBM, HBM-as-cache)",
		PaperClaim: "DRAM ~67.5k MiB/s flat; HBM ~300-324k (4.3-4.8x DRAM); cache mode matches HBM while fitting " +
			"and halves to ~149k past 2x HBM capacity, staying above DRAM",
		Headline: fmt.Sprintf("model: HBM/DRAM ratio %.2fx at 8GiB; cache mode %.0f MiB/s at 32GiB (vs DRAM %.0f)",
			hbm8/dram8, cache32, dram8),
		Tables: []*report.Table{tbl},
	}, nil
}

// figure6 reproduces Figure 6: pointer-chasing latency across the entire
// hierarchy, 1KiB to 64GiB.
func figure6(o Options) (*Outcome, error) {
	m := knl.Default()
	tbl := report.NewTable(
		"Pointer chasing across the whole hierarchy (ns per update)",
		"Array Size", "DRAM (ns)", "HBM (ns)", "Cache (ns)")
	series := []report.Series{{Name: "flat DRAM"}, {Name: "flat HBM"}, {Name: "cache mode"}}
	logSize := 0.0
	for b := 1 * kib; b <= 64*gib; b *= 2 {
		d, err := m.ChaseLatencyNS(b, knl.FlatDRAM)
		if err != nil {
			return nil, err
		}
		c, err := m.ChaseLatencyNS(b, knl.Cache)
		if err != nil {
			return nil, err
		}
		hCell := "-"
		series[0].X = append(series[0].X, logSize)
		series[0].Y = append(series[0].Y, d)
		series[2].X = append(series[2].X, logSize)
		series[2].Y = append(series[2].Y, c)
		if b <= m.HBMBytes/2 {
			h, err := m.ChaseLatencyNS(b, knl.FlatHBM)
			if err != nil {
				return nil, err
			}
			hCell = fmt.Sprintf("%.1f", h)
			series[1].X = append(series[1].X, logSize)
			series[1].Y = append(series[1].Y, h)
		}
		tbl.AddRow(sizeLabel(b), fmt.Sprintf("%.1f", d), hCell, fmt.Sprintf("%.1f", c))
		logSize++
	}
	return &Outcome{
		ID:    "fig6",
		Title: "Figure 6: pointer chasing on HBM, DRAM, and HBM-as-cache",
		PaperClaim: "latency jumps at each cache-tier boundary (L1, L2, shared L2, HBM); flat HBM tracks flat DRAM " +
			"+24ns; cache mode diverges upward once the array exceeds HBM",
		Headline:   "model shows the same tier plateaus and the cache-mode divergence past HBM capacity",
		Tables:     []*report.Table{tbl},
		Series:     series,
		ChartTitle: "latency (ns, y) vs log2(array bytes / 1KiB) (x)",
	}, nil
}

// knlProperties checks the four §5 model-validation properties against the
// calibrated machine.
func knlProperties(o Options) (*Outcome, error) {
	m := knl.Default()
	props, err := m.CheckProperties()
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable("Model-validation properties (§5)", "Property", "Holds", "Detail")
	allHold := true
	for _, p := range props {
		tbl.AddRow(fmt.Sprintf("P%d: %s", p.ID, p.Description), p.Holds, p.Detail)
		allHold = allHold && p.Holds
	}
	return &Outcome{
		ID:         "knl-properties",
		Title:      "KNL model validation: the four properties of §5",
		PaperClaim: "KNL hardware is consistent with Properties 1-4 of the HBM+DRAM model",
		Headline:   fmt.Sprintf("all four properties hold on the machine model: %v", allHold),
		Tables:     []*report.Table{tbl},
	}, nil
}
