// Command traceinfo analyses a workload trace: per-core footprints,
// reuse (LRU stack) distances, miss-ratio curves, and the static HBM
// partitioning a clairvoyant allocator would choose. It explains, for any
// trace, where the FIFO/Priority crossover of the paper's Figure 2 will
// fall.
//
// Usage:
//
//	traceinfo -trace sort.hbmt -k 250,1000,4000
//	tracegen -gen spgemm -cores 8 -size 96 -o sp.hbmt && traceinfo -trace sp.hbmt
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hbmsim"

	"hbmsim/internal/report"
	"hbmsim/internal/stackdist"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file produced by tracegen")
		ksFlag    = flag.String("k", "250,1000,4000", "HBM sizes for the miss-ratio table")
	)
	flag.Parse()
	if *tracePath == "" {
		fail(fmt.Errorf("-trace is required"))
	}
	wl, err := hbmsim.ReadWorkload(*tracePath)
	if err != nil {
		fail(err)
	}
	if wl.Cores() == 0 {
		fail(fmt.Errorf("%s: trace has no cores", *tracePath))
	}
	var ks []int
	for _, s := range strings.Split(*ksFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 1 {
			fail(fmt.Errorf("bad -k value %q", s))
		}
		ks = append(ks, v)
	}

	fmt.Printf("workload %q: %d cores, %d refs, %d unique pages\n\n",
		wl.Name, wl.Cores(), wl.TotalRefs(), wl.UniquePages())

	perCore := report.NewTable("Per-core reuse profile",
		"core", "refs", "unique", "median reuse dist", "p90 reuse dist", "p99 reuse dist")
	curves := make([]stackdist.Curve, wl.Cores())
	for i, tr := range wl.Traces {
		c := stackdist.CurveOf(tr)
		curves[i] = c
		perCore.AddRow(i, len(tr), c.Unique(),
			c.DistanceQuantile(0.5), c.DistanceQuantile(0.9), c.DistanceQuantile(0.99))
	}
	if err := perCore.Render(os.Stdout); err != nil {
		fail(err)
	}
	fmt.Println()

	mr := report.NewTable("Miss ratios and static partitioning",
		"k", "miss ratio (core 0)", "optimal-partition misses", "even-split misses", "even/optimal")
	for _, k := range ks {
		_, opt, err := stackdist.OptimalPartition(curves, k)
		if err != nil {
			fail(err)
		}
		even := stackdist.EvenPartition(curves, k)
		ratio := 0.0
		if opt > 0 {
			ratio = float64(even) / float64(opt)
		}
		mr.AddRow(k, curves[0].MissRatio(k), opt, even, ratio)
	}
	if err := mr.Render(os.Stdout); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "traceinfo: %v\n", err)
	os.Exit(1)
}
