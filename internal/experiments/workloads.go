package experiments

import (
	"hbmsim/internal/trace"
	"hbmsim/internal/workloads"
)

// sortWorkload builds the Dataset-1 workload (instrumented GNU sort) on p
// cores. Core i's trace depends only on the seed and on i, so a study
// over several thread counts builds the largest and takes prefixes.
func sortWorkload(o Options, p int) (*trace.Workload, error) {
	return workloads.SortWorkload(p, workloads.SortConfig{
		N:         o.SortN,
		Algo:      workloads.Introsort,
		PageBytes: o.PageBytes,
	}, o.Seed)
}

// spgemmWorkload builds the Dataset-2 workload (instrumented SpGEMM) on
// p cores.
func spgemmWorkload(o Options, p int) (*trace.Workload, error) {
	return workloads.SpGEMMWorkload(p, workloads.SpGEMMConfig{
		N:         o.SpGEMMN,
		Density:   o.SpGEMMDensity,
		PageBytes: o.PageBytes,
	}, o.Seed)
}
