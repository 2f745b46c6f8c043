package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// compareFiles prints one row per workload and metric of two sets of -out
// files (A, the base, and B), each a comma-separated list: the medians,
// B's change relative to A, the spread, and a verdict. A change no larger
// than the spread is "unresolved". The spread is the larger of the two
// sides' run-to-run spreads (quartile distance over median with four or
// more runs, range over median with two or three) and, for an end-to-end
// metric, its bound from BENCHMARK.json: a change within the bound is not
// a regression by the benchmark's own rule. Exact counts of runs with one
// seed must match; any difference is a behaviour change.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	as, err := loadDocs(a)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	bs, err := loadDocs(b)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	all := append(append([]resultDoc(nil), as...), bs...)
	sameSeed := true
	for _, d := range all[1:] {
		h0, h := all[0].Host, d.Host
		if h.NumCPU != h0.NumCPU || h.GOMAXPROCS != h0.GOMAXPROCS || h.CPUModel != h0.CPUModel || h.GoVersion != h0.GoVersion {
			fmt.Fprintf(stderr, "bench: warning: runs come from different hosts (%+v vs %+v); timings are not comparable\n", h0, h)
		}
		sameSeed = sameSeed && d.Seed == all[0].Seed
	}
	bounds := loadBounds("BENCHMARK.json")

	fmt.Fprintf(stdout, "%-15s %-34s %14s %14s %9s %8s  %s\n", "workload", "metric", "A", "B", "delta", "spread", "verdict")
	for _, name := range workloadNames {
		for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			av, bv := values(as, name, def.name), values(bs, name, def.name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			am, bm := quantile(av, 0.5), quantile(bv, 0.5)
			delta := ratio(bm-am, math.Abs(am))
			spread, known := math.Max(spreadOf(av), spreadOf(bv)), len(av) > 1 || len(bv) > 1
			if bound, ok := bounds[def.name]; ok {
				spread, known = math.Max(spread, bound), true
			}
			fmt.Fprintf(stdout, "%-15s %-34s %14.6g %14.6g %+8.1f%% %7s  %s\n", name, def.name, am, bm,
				100*delta, spreadText(spread, known), verdict(def, sameSeed, am, bm, delta, spread, known))
		}
		fmt.Fprintf(stdout, "%-15s %-34s %s\n", name, "digests", compareDigests(all, sameSeed, name))
	}
	return 0
}

func verdict(def metricDef, sameSeed bool, am, bm, delta, spread float64, known bool) string {
	switch {
	case am == bm:
		return "same"
	case def.exact && sameSeed:
		return "CHANGED (exact count)"
	case !known || math.Abs(delta) <= spread:
		return "unresolved"
	case (delta < 0) == (def.better == "lower"):
		return "better"
	default:
		return "worse"
	}
}

func spreadText(s float64, known bool) string {
	if !known {
		return "?"
	}
	return fmt.Sprintf("%.1f%%", 100*s)
}

// spreadOf is a side's run-to-run spread relative to its median.
func spreadOf(xs []float64) float64 {
	switch {
	case len(xs) >= 4:
		return ratio(quantile(xs, 0.75)-quantile(xs, 0.25), math.Abs(quantile(xs, 0.5)))
	case len(xs) >= 2:
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return ratio(hi-lo, math.Abs(quantile(xs, 0.5)))
	}
	return 0
}

// compareDigests reports whether every run produced the same result
// digests. Digests depend on the seed, so runs with different seeds are
// not compared.
func compareDigests(docs []resultDoc, sameSeed bool, name string) string {
	if !sameSeed {
		return "not compared (different seeds)"
	}
	var ref map[string]string
	for _, d := range docs {
		for _, r := range d.Results {
			if r.Workload != name {
				continue
			}
			if ref == nil {
				ref = r.Digests
				continue
			}
			if !sameDigests(ref, r.Digests) {
				return "DIFFERENT"
			}
		}
	}
	return fmt.Sprintf("identical (%d)", len(ref))
}

func sameDigests(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// values collects metric's value for workload across docs.
func values(docs []resultDoc, workload, metric string) []float64 {
	var out []float64
	for _, d := range docs {
		for _, r := range d.Results {
			if r.Workload != workload {
				continue
			}
			for _, m := range r.Metrics {
				if m.Name == metric {
					out = append(out, m.Value)
				}
			}
		}
	}
	return out
}

func loadDocs(list string) ([]resultDoc, error) {
	var docs []resultDoc
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var d resultDoc
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json; a missing
// or unreadable file yields none.
func loadBounds(path string) map[string]float64 {
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(b, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
