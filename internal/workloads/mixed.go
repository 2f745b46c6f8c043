package workloads

import (
	"fmt"

	"hbmsim/internal/model"
	"hbmsim/internal/trace"
)

// MixedSpec assigns a number of cores to one generator within a mixed
// workload.
type MixedSpec struct {
	// Cores is how many cores run this generator.
	Cores int
	// Gen produces one core's trace from a seed.
	Gen Gen
	// Name labels the component in the workload name.
	Name string
}

// Mixed builds a heterogeneous workload: different cores run different
// programs (the paper's future-work direction "test different workloads";
// its own experiments give every core the same program). Components are
// laid out in spec order, each numbering its pages after the previous
// component's, so the result is disjoint without a second renumbering.
func Mixed(specs []MixedSpec, baseSeed int64) (*trace.Workload, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("workloads: mixed workload needs at least one component")
	}
	var traces []trace.Trace
	var next model.PageID
	name := "mixed"
	seed := baseSeed
	for i, sp := range specs {
		if sp.Cores <= 0 {
			return nil, fmt.Errorf("workloads: component %d has %d cores", i, sp.Cores)
		}
		if sp.Gen == nil {
			return nil, fmt.Errorf("workloads: component %d has no generator", i)
		}
		part, unique, err := build(sp.Name, sp.Cores, seed, copied(sp.Gen), next)
		if err != nil {
			return nil, fmt.Errorf("workloads: component %d (%s): %w", i, sp.Name, err)
		}
		next += unique
		seed += int64(sp.Cores)
		traces = append(traces, part.Traces...)
		name += fmt.Sprintf("+%dx%s", sp.Cores, sp.Name)
	}
	return trace.Raw(name, traces), nil
}
