package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// diffRow is the comparison of one benchmark across two reports.
type diffRow struct {
	Package string
	Name    string
	// Status is "ok", "regressed", "added", or "removed".
	Status   string
	OldNs    float64
	NewNs    float64
	NsPct    float64 // signed percent change; +Inf when old is 0 and new is not
	OldAlloc int64
	NewAlloc int64
	AllocPct float64
	// NsRegressed / AllocRegressed mark which metric tripped the threshold.
	NsRegressed    bool
	AllocRegressed bool
	// Counts lists the work counts both reports carry, as "unit old → new";
	// Drifted names the gated ones that differ.
	Counts  []string
	Drifted []string
}

// gatedCounts are deterministic work counts a benchmark reports next to
// ns/op. The same workload under the same configuration must do the same
// work on any host and under any optimisation, so a change to either
// between two snapshots that both carry it fails the diff whatever the
// timings say. listedCounts are printed but not gated: they describe how
// the simulator executed the run (ticks jumped, serves cruised), which
// an optimisation may rightly change.
var (
	gatedCounts  = []string{"ticks/op", "evictions/op"}
	listedCounts = []string{"ff_ticks/op", "cruised/op"}
)

// compareCounts fills r.Counts and r.Drifted from the extra metrics of
// the old and new benchmark.
func compareCounts(r *diffRow, ob, nb Benchmark) {
	for i, unit := range append(append([]string{}, gatedCounts...), listedCounts...) {
		o, okOld := ob.Extra[unit]
		n, okNew := nb.Extra[unit]
		if !okOld || !okNew {
			continue
		}
		r.Counts = append(r.Counts, fmt.Sprintf("%s %.0f → %.0f", unit, o, n))
		if i < len(gatedCounts) && o != n {
			r.Drifted = append(r.Drifted, unit)
		}
	}
}

// pctChange returns the signed percent change from old to new, +Inf for a
// growth from zero and 0 when both are zero.
func pctChange(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (new - old) / old * 100
}

// thresholds holds the per-metric regression limits. ns/op and allocs/op
// get separate limits because they have very different noise profiles:
// allocs/op is deterministic (the same binary always allocates the same
// count), while ns/op on a shared or virtualised host can swing tens of
// percent between runs of bit-identical binaries.
type thresholds struct {
	NsPct    float64
	AllocPct float64
}

// diffReports compares two reports benchmark by benchmark. A benchmark
// regresses when ns/op grows by more than th.NsPct or allocs/op grows by
// more than th.AllocPct over the old report, or when a gated work count
// (gatedCounts) differs between them. Benchmarks present in only
// one report are listed as added/removed but never count as regressions
// (renames would otherwise block every refactor). The returned rows are
// sorted by package then name; regressed reports whether any row
// regressed.
func diffReports(old, new *Report, th thresholds) (rows []diffRow, regressed bool) {
	type key struct {
		pkg, name string
		procs     int
	}
	oldBy := make(map[key]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldBy[key{b.Package, b.Name, b.Procs}] = b
	}
	seen := make(map[key]bool, len(new.Benchmarks))
	for _, nb := range new.Benchmarks {
		k := key{nb.Package, nb.Name, nb.Procs}
		seen[k] = true
		ob, ok := oldBy[k]
		if !ok {
			rows = append(rows, diffRow{Package: nb.Package, Name: nb.Name, Status: "added",
				NewNs: nb.NsPerOp, NewAlloc: nb.AllocsPerOp})
			continue
		}
		r := diffRow{
			Package: nb.Package, Name: nb.Name, Status: "ok",
			OldNs: ob.NsPerOp, NewNs: nb.NsPerOp,
			NsPct:    pctChange(ob.NsPerOp, nb.NsPerOp),
			OldAlloc: ob.AllocsPerOp, NewAlloc: nb.AllocsPerOp,
			AllocPct: pctChange(float64(ob.AllocsPerOp), float64(nb.AllocsPerOp)),
		}
		r.NsRegressed = r.NsPct > th.NsPct
		r.AllocRegressed = r.AllocPct > th.AllocPct
		compareCounts(&r, ob, nb)
		if r.NsRegressed || r.AllocRegressed || len(r.Drifted) > 0 {
			r.Status = "regressed"
			regressed = true
		}
		rows = append(rows, r)
	}
	for _, ob := range old.Benchmarks {
		if k := (key{ob.Package, ob.Name, ob.Procs}); !seen[k] {
			rows = append(rows, diffRow{Package: ob.Package, Name: ob.Name, Status: "removed",
				OldNs: ob.NsPerOp, OldAlloc: ob.AllocsPerOp})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Package != rows[j].Package {
			return rows[i].Package < rows[j].Package
		}
		return rows[i].Name < rows[j].Name
	})
	return rows, regressed
}

// fmtPct renders a signed percent change for the diff table.
func fmtPct(p float64) string {
	if math.IsInf(p, 1) {
		return "+inf%"
	}
	return fmt.Sprintf("%+.1f%%", p)
}

// writeDiff prints the per-benchmark delta table.
func writeDiff(w io.Writer, rows []diffRow, th thresholds) {
	fmt.Fprintf(w, "%-60s %14s %14s %9s %12s %12s %9s\n",
		"benchmark", "old ns/op", "new ns/op", "ns Δ", "old allocs", "new allocs", "allocs Δ")
	for _, r := range rows {
		name := r.Package + "." + r.Name
		switch r.Status {
		case "added":
			fmt.Fprintf(w, "%-60s %14s %14.1f %9s %12s %12d %9s\n",
				name, "-", r.NewNs, "added", "-", r.NewAlloc, "")
		case "removed":
			fmt.Fprintf(w, "%-60s %14.1f %14s %9s %12d %12s %9s\n",
				name, r.OldNs, "-", "removed", r.OldAlloc, "-", "")
		default:
			mark := ""
			if r.Status == "regressed" {
				mark = "  << REGRESSED"
			}
			fmt.Fprintf(w, "%-60s %14.1f %14.1f %9s %12d %12d %9s%s\n",
				name, r.OldNs, r.NewNs, fmtPct(r.NsPct),
				r.OldAlloc, r.NewAlloc, fmtPct(r.AllocPct), mark)
			if len(r.Counts) > 0 {
				fmt.Fprintf(w, "    %s\n", strings.Join(r.Counts, ", "))
			}
			if len(r.Drifted) > 0 {
				fmt.Fprintf(w, "    << COUNT DRIFT: %s\n", strings.Join(r.Drifted, ", "))
			}
		}
	}
	if th.NsPct == th.AllocPct {
		fmt.Fprintf(w, "regression threshold: +%.0f%% on ns/op or allocs/op\n", th.NsPct)
	} else {
		fmt.Fprintf(w, "regression thresholds: +%.0f%% on ns/op, +%.0f%% on allocs/op\n",
			th.NsPct, th.AllocPct)
	}
	fmt.Fprintf(w, "work counts gated exactly: %s\n", strings.Join(gatedCounts, ", "))
}

// readReport loads and validates a committed JSON report.
func readReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, schemaVersion)
	}
	return &rep, nil
}

// runDiff implements the -diff mode: load both reports, print the delta
// table, and report whether anything regressed past its threshold.
func runDiff(oldPath, newPath string, th thresholds, w io.Writer) (regressed bool, err error) {
	old, err := readReport(oldPath)
	if err != nil {
		return false, err
	}
	new, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	rows, regressed := diffReports(old, new, th)
	writeDiff(w, rows, th)
	return regressed, nil
}
