// Package workloads generates the page-reference workloads of the paper's
// evaluation (§3.2):
//
//   - Dataset 1: GNU sort. libstdc++'s std::sort is introsort; we run a
//     faithful introsort (plus mergesort/quicksort/heapsort variants, which
//     the paper's sweep also mentions) over instrumented arrays.
//   - Dataset 2: TACO-style sparse matrix-matrix multiplication
//     (Gustavson's algorithm over CSR with a dense workspace).
//   - Dataset 3: the adversarial trace 1,2,...,256 repeated 100 times that
//     makes FIFO catastrophically slow.
//   - Supporting kernels and synthetic streams (dense matmul, STREAM triad,
//     uniform/zipfian/strided) used by the ablation experiments.
//
// Every generator is deterministic in its seed. A workload's per-core
// traces come from independent runs of the same program with different
// randomness, exactly as in the paper.
package workloads

import (
	"fmt"
	"slices"

	"hbmsim/internal/memlog"
	"hbmsim/internal/model"
	"hbmsim/internal/trace"
)

// DefaultPageBytes is the page size used by all generators unless
// overridden: 4 KiB, the usual OS page.
const DefaultPageBytes = 4096

// Gen produces one core's page trace from a seed. Build renumbers a
// copy of the trace a Gen returns and never writes into the Gen's own
// slice, so a Gen may return a slice it shares or keeps.
type Gen func(seed int64) (trace.Trace, error)

// coreGen produces one core's page trace for build, which renumbers it
// in place: the trace must be the generator's own fresh slice. An
// instrumented run takes its log chunks from free, which build shares
// among the cores it generates.
type coreGen func(seed int64, free *memlog.FreeList) (trace.Trace, error)

// Build runs gen once per core (with seeds baseSeed, baseSeed+1, ...) in
// parallel and assembles the disjoint workload: core i's pages follow
// core i-1's, each core numbered densely in first-appearance order, as
// trace.NewWorkload numbers them. Generation is embarrassingly parallel,
// so it fans out across goroutines, and each core is renumbered in the
// goroutine that generated it.
func Build(name string, cores int, baseSeed int64, gen Gen) (*trace.Workload, error) {
	return generate(name, cores, baseSeed, copied(gen))
}

// copied adapts a caller's Gen to build, which renumbers in place, by
// handing build a copy of each trace.
func copied(gen Gen) coreGen {
	return func(seed int64, _ *memlog.FreeList) (trace.Trace, error) {
		tr, err := gen(seed)
		return slices.Clone(tr), err
	}
}

// generate is Build for a generator whose traces build may renumber in
// place: the built-in ones.
func generate(name string, cores int, baseSeed int64, gen coreGen) (*trace.Workload, error) {
	wl, _, err := build(name, cores, baseSeed, gen, 0)
	return wl, err
}

// build is generate with the workload's pages numbered from first rather
// than 0; it also returns the workload's distinct-page count. The cores
// share one free list of log chunks, so the build holds the access logs
// of only the cores in flight, and each core's renumbered trace is the
// one gen returned. Page IDs are 32-bit: a workload whose pages, counted
// from first, pass 2^32 is an error.
func build(name string, cores int, baseSeed int64, gen coreGen, first uint64) (*trace.Workload, uint64, error) {
	if cores <= 0 {
		return nil, 0, fmt.Errorf("workloads: core count must be positive, got %d", cores)
	}
	traces := make([]trace.Trace, cores)
	unique := make([]int, cores)
	errs := make([]error, cores)
	var free memlog.FreeList
	trace.Parallel(cores, func(i int) {
		tr, err := gen(baseSeed+int64(i), &free)
		if err != nil {
			errs[i] = err
			return
		}
		unique[i] = trace.Renumber(tr, tr, 0)
		traces[i] = tr
	})
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("workloads: generating core %d: %w", i, err)
		}
	}
	// Each core now numbers its pages from 0; shift it past the cores
	// before it, once every shifted page is known to fit.
	end := first
	for _, u := range unique {
		end += uint64(u)
	}
	if end > model.MaxPageID+1 {
		return nil, 0, fmt.Errorf("workloads: %s: %d pages numbered from %d pass the largest page ID %d", name, end-first, first, uint64(model.MaxPageID))
	}
	bases := make([]model.PageID, cores)
	next := first
	for i, u := range unique {
		if u > 0 { // next+u <= end <= 2^32, so next fits
			bases[i] = model.PageID(next)
		}
		next += uint64(u)
	}
	trace.Parallel(cores, func(i int) {
		if b := bases[i]; b != 0 {
			tr := traces[i]
			for j := range tr {
				tr[j] += b
			}
		}
	})
	return trace.Raw(name, traces), end - first, nil
}

// Imbalance truncates each core's trace to a fraction of its length that
// ramps linearly from minFrac (core 0) to 1.0 (last core), producing the
// asymmetric-work workloads used to study Cycle Priority's robustness (§4:
// "When the work is asymmetric, Cycle Priority continuously places the same
// thread behind the most demanding thread").
func Imbalance(wl *trace.Workload, minFrac float64) (*trace.Workload, error) {
	if minFrac <= 0 || minFrac > 1 {
		return nil, fmt.Errorf("workloads: minFrac must be in (0, 1], got %g", minFrac)
	}
	p := len(wl.Traces)
	out := make([]trace.Trace, p)
	for i, t := range wl.Traces {
		frac := 1.0
		if p > 1 {
			frac = minFrac + (1-minFrac)*float64(i)/float64(p-1)
		}
		n := int(frac * float64(len(t)))
		if n < 1 && len(t) > 0 {
			n = 1
		}
		out[i] = t[:n]
	}
	return trace.Raw(wl.Name+"-imbalanced", out), nil
}
