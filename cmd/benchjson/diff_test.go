package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func bench(name string, ns float64, allocs int64) Benchmark {
	return Benchmark{Package: "pkg", Name: name, Procs: 8, NsPerOp: ns, AllocsPerOp: allocs}
}

func report(bs ...Benchmark) *Report {
	return &Report{Schema: schemaVersion, Benchmarks: bs}
}

// both is the pre-split behaviour: one limit for both metrics.
func both(pct float64) thresholds {
	return thresholds{NsPct: pct, AllocPct: pct}
}

func rowFor(t *testing.T, rows []diffRow, name string) diffRow {
	t.Helper()
	for _, r := range rows {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no diff row for %q", name)
	return diffRow{}
}

func TestDiffReportsStatuses(t *testing.T) {
	old := report(
		bench("Stable", 100, 10),
		bench("Faster", 100, 10),
		bench("SlowerNs", 100, 10),
		bench("MoreAllocs", 100, 10),
		bench("Borderline", 100, 10),
		bench("Removed", 100, 10),
	)
	new := report(
		bench("Stable", 104, 10),
		bench("Faster", 40, 1),
		bench("SlowerNs", 140, 10),
		bench("MoreAllocs", 100, 30),
		bench("Borderline", 115, 10), // exactly +15%: not a regression
		bench("Added", 50, 5),
	)
	rows, regressed := diffReports(old, new, both(15))
	if !regressed {
		t.Fatal("regressions not detected")
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	for name, want := range map[string]string{
		"Stable": "ok", "Faster": "ok", "Borderline": "ok",
		"SlowerNs": "regressed", "MoreAllocs": "regressed",
		"Added": "added", "Removed": "removed",
	} {
		if got := rowFor(t, rows, name).Status; got != want {
			t.Errorf("%s: status %q, want %q", name, got, want)
		}
	}
	if r := rowFor(t, rows, "SlowerNs"); !r.NsRegressed || r.AllocRegressed {
		t.Errorf("SlowerNs: wrong metric flagged: %+v", r)
	}
	if r := rowFor(t, rows, "MoreAllocs"); r.NsRegressed || !r.AllocRegressed {
		t.Errorf("MoreAllocs: wrong metric flagged: %+v", r)
	}
	if r := rowFor(t, rows, "Faster"); r.NsPct > -59 || r.AllocPct > -89 {
		t.Errorf("Faster: deltas %v / %v look wrong", r.NsPct, r.AllocPct)
	}
}

// TestDiffReportsCountDrift pins the exact gate on work counts: a
// gated count that differs between two snapshots that both carry it
// fails the diff even when the timings improve, a listed count may
// change freely, and a count only one side carries is not compared.
func TestDiffReportsCountDrift(t *testing.T) {
	withCounts := func(name string, ns float64, counts map[string]float64) Benchmark {
		b := bench(name, ns, 10)
		b.Extra = counts
		return b
	}
	old := report(
		withCounts("Same", 100, map[string]float64{"ticks/op": 5000, "evictions/op": 70, "ff_ticks/op": 900, "cruised/op": 0}),
		withCounts("TicksDrift", 100, map[string]float64{"ticks/op": 5000, "evictions/op": 70}),
		withCounts("EvictionsDrift", 100, map[string]float64{"ticks/op": 5000, "evictions/op": 70}),
		withCounts("OneSided", 100, map[string]float64{"ticks/op": 5000}),
	)
	new := report(
		withCounts("Same", 60, map[string]float64{"ticks/op": 5000, "evictions/op": 70, "ff_ticks/op": 12, "cruised/op": 4000}),
		withCounts("TicksDrift", 60, map[string]float64{"ticks/op": 5001, "evictions/op": 70}),
		withCounts("EvictionsDrift", 100, map[string]float64{"ticks/op": 5000, "evictions/op": 69}),
		withCounts("OneSided", 100, nil),
	)
	rows, regressed := diffReports(old, new, both(50))
	if !regressed {
		t.Fatal("count drift not detected")
	}
	for name, want := range map[string]string{
		"Same": "ok", "TicksDrift": "regressed", "EvictionsDrift": "regressed", "OneSided": "ok",
	} {
		if got := rowFor(t, rows, name).Status; got != want {
			t.Errorf("%s: status %q, want %q", name, got, want)
		}
	}
	if r := rowFor(t, rows, "TicksDrift"); len(r.Drifted) != 1 || r.Drifted[0] != "ticks/op" || r.NsRegressed {
		t.Errorf("TicksDrift: flagged %v (ns regressed %v)", r.Drifted, r.NsRegressed)
	}
	if r := rowFor(t, rows, "Same"); len(r.Counts) != 4 || len(r.Drifted) != 0 {
		t.Errorf("Same: counts %v, drifted %v", r.Counts, r.Drifted)
	}
	var out strings.Builder
	writeDiff(&out, rows, both(50))
	for _, want := range []string{"ff_ticks/op 900 → 12", "<< COUNT DRIFT: evictions/op"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff table lacks %q:\n%s", want, out.String())
		}
	}
}

func TestDiffReportsCleanRun(t *testing.T) {
	old := report(bench("A", 100, 10), bench("B", 200, 0))
	new := report(bench("A", 90, 10), bench("B", 210, 0))
	rows, regressed := diffReports(old, new, both(15))
	if regressed {
		t.Fatalf("false regression: %+v", rows)
	}
	if r := rowFor(t, rows, "B"); r.AllocPct != 0 {
		t.Errorf("0 -> 0 allocs should be a 0%% change, got %v", r.AllocPct)
	}
}

func TestDiffReportsZeroDenominator(t *testing.T) {
	// 0 -> 1 allocs is an infinite-percent growth and must regress.
	old := report(bench("A", 100, 0))
	new := report(bench("A", 100, 1))
	rows, regressed := diffReports(old, new, both(15))
	if !regressed {
		t.Fatal("0 -> 1 allocs must count as a regression")
	}
	if r := rowFor(t, rows, "A"); !math.IsInf(r.AllocPct, 1) || !r.AllocRegressed {
		t.Errorf("row: %+v", r)
	}
}

// TestDiffReportsSplitThresholds pins the per-metric limits: a wide
// ns/op threshold (timing noise) must not loosen the allocs/op gate,
// and vice versa.
func TestDiffReportsSplitThresholds(t *testing.T) {
	old := report(
		bench("NoisyNs", 100, 10),
		bench("TooSlow", 100, 10),
		bench("MoreAllocs", 100, 10),
	)
	new := report(
		bench("NoisyNs", 140, 10),    // +40% ns: under the wide ns limit
		bench("TooSlow", 160, 10),    // +60% ns: over even the wide limit
		bench("MoreAllocs", 100, 14), // +40% allocs: over the tight limit
	)
	rows, regressed := diffReports(old, new, thresholds{NsPct: 50, AllocPct: 25})
	if !regressed {
		t.Fatal("regressions not detected")
	}
	if r := rowFor(t, rows, "NoisyNs"); r.Status != "ok" {
		t.Errorf("NoisyNs under the ns threshold flagged: %+v", r)
	}
	if r := rowFor(t, rows, "TooSlow"); !r.NsRegressed || r.AllocRegressed {
		t.Errorf("TooSlow: wrong metric flagged: %+v", r)
	}
	if r := rowFor(t, rows, "MoreAllocs"); r.NsRegressed || !r.AllocRegressed {
		t.Errorf("MoreAllocs must regress on allocs despite the wide ns limit: %+v", r)
	}

	var sb strings.Builder
	writeDiff(&sb, rows, thresholds{NsPct: 50, AllocPct: 25})
	if out := sb.String(); !strings.Contains(out, "+50% on ns/op, +25% on allocs/op") {
		t.Errorf("split thresholds missing from footer:\n%s", out)
	}
}

func TestDiffReportsProcsAreDistinct(t *testing.T) {
	a := bench("A", 100, 10)
	b := a
	b.Procs = 16
	b.NsPerOp = 500 // different procs, not comparable to a
	rows, regressed := diffReports(report(a), report(b), both(15))
	if regressed {
		t.Fatalf("procs mismatch compared as same benchmark: %+v", rows)
	}
	if len(rows) != 2 {
		t.Fatalf("want added+removed rows, got %+v", rows)
	}
}

// TestRunDiffEndToEnd exercises the file-based entry point, including
// the human-readable table and the schema check.
func TestRunDiffEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *Report) string {
		t.Helper()
		path := filepath.Join(dir, name)
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", report(bench("Sim", 100, 1000)))
	newPath := write("new.json", report(bench("Sim", 300, 1000)))

	var sb strings.Builder
	regressed, err := runDiff(oldPath, newPath, both(15), &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatal("3x slowdown not flagged")
	}
	out := sb.String()
	for _, want := range []string{"pkg.Sim", "+200.0%", "REGRESSED", "threshold"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}

	badPath := write("bad.json", &Report{Schema: "other/9"})
	if _, err := runDiff(oldPath, badPath, both(15), &sb); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
	if _, err := runDiff(filepath.Join(dir, "missing.json"), newPath, both(15), &sb); err == nil {
		t.Fatal("missing file not rejected")
	}
}
