package workloads

import (
	"fmt"
	"strings"

	"hbmsim/internal/trace"
)

// Spec names a built-in workload generator plus its parameters: the
// vocabulary of `hbmsim -gen`, `tracegen -gen` and job specs.
// Generators are deterministic in (spec, seed), which is what makes jobs
// replayable after a crash: the restarted service rebuilds the workload
// from the spec and verifies it against the fingerprint journaled at
// admission.
type Spec struct {
	// Gen is the generator name, one of Names.
	Gen string `json:"gen"`
	// Cores is the number of per-core traces to generate.
	Cores int `json:"cores"`
	// Size is the generator's size knob (sort N, matrix dimension,
	// reference count); 0 selects 8000.
	Size int `json:"size,omitempty"`
	// PageBytes maps instrumented accesses to pages; 0 selects 64.
	PageBytes int `json:"page_bytes,omitempty"`
	// Seed drives the generator's randomness.
	Seed int64 `json:"seed,omitempty"`
}

// generator builds a workload from a Spec's fields, defaults applied.
type generator func(cores, size, pageBytes int, seed int64) (*trace.Workload, error)

// generators maps each name a Spec accepts onto its generator call;
// pages marks the generators that map logged addresses to pages, which
// need a page size of at least one byte. Renaming an entry, or changing
// what a call makes of the size, page size or seed, moves the
// fingerprint of every stored job that names it.
var generators = []struct {
	name  string
	pages bool
	build generator
}{
	{"sort", true, sortWith(Introsort)},
	{"mergesort", true, sortWith(Mergesort)},
	{"quicksort", true, sortWith(Quicksort)},
	{"heapsort", true, sortWith(Heapsort)},
	{"spgemm", true, func(cores, size, pageBytes int, seed int64) (*trace.Workload, error) {
		return SpGEMMWorkload(cores, SpGEMMConfig{N: size, PageBytes: pageBytes}, seed)
	}},
	{"densemm", true, func(cores, size, pageBytes int, seed int64) (*trace.Workload, error) {
		return DenseMMWorkload(cores, DenseMMConfig{N: size, PageBytes: pageBytes}, seed)
	}},
	{"stream", true, func(cores, size, pageBytes int, seed int64) (*trace.Workload, error) {
		return StreamWorkload(cores, StreamConfig{N: size, PageBytes: pageBytes}, seed)
	}},
	{"bfs", true, func(cores, size, pageBytes int, seed int64) (*trace.Workload, error) {
		return BFSWorkload(cores, BFSConfig{Vertices: size, PageBytes: pageBytes}, seed)
	}},
	{"adversarial", false, func(cores, size, _ int, _ int64) (*trace.Workload, error) {
		return AdversarialWorkload(cores, AdversarialConfig{Pages: size})
	}},
	{"uniform", false, syntheticWith(Uniform)},
	{"zipf", false, syntheticWith(Zipfian)},
	{"strided", false, syntheticWith(Strided)},
}

func sortWith(algo SortAlgo) generator {
	return func(cores, size, pageBytes int, seed int64) (*trace.Workload, error) {
		return SortWorkload(cores, SortConfig{N: size, Algo: algo, PageBytes: pageBytes}, seed)
	}
}

// syntheticWith draws size references over size/4 pages; synthetic
// streams have no page size.
func syntheticWith(kind SyntheticKind) generator {
	return func(cores, size, _ int, seed int64) (*trace.Workload, error) {
		return SyntheticWorkload(cores, SyntheticConfig{Kind: kind, Refs: size, Pages: size / 4}, seed)
	}
}

// Names lists the generator names a Spec accepts.
func Names() []string {
	names := make([]string, len(generators))
	for i, g := range generators {
		names[i] = g.name
	}
	return names
}

// Validate returns the error Build would return for the spec's
// generator name, core count or page size, without generating anything.
func (s Spec) Validate() error {
	_, err := s.lookup()
	return err
}

func (s Spec) lookup() (generator, error) {
	if s.Cores < 1 {
		return nil, fmt.Errorf("workloads: workload needs cores >= 1, got %d", s.Cores)
	}
	if s.Gen == "" {
		return nil, fmt.Errorf("workloads: workload spec needs a generator name")
	}
	for _, g := range generators {
		if g.name != s.Gen {
			continue
		}
		if g.pages && s.PageBytes < 0 {
			return nil, fmt.Errorf("workloads: %s needs a page size of at least 1 byte, got %d", s.Gen, s.PageBytes)
		}
		return g.build, nil
	}
	return nil, fmt.Errorf("workloads: unknown workload generator %q (known: %s)", s.Gen, strings.Join(Names(), ", "))
}

// Build generates the workload.
func (s Spec) Build() (*trace.Workload, error) {
	build, err := s.lookup()
	if err != nil {
		return nil, err
	}
	size := s.Size
	if size == 0 {
		size = 8000
	}
	pageBytes := s.PageBytes
	if pageBytes == 0 {
		pageBytes = 64
	}
	return build(s.Cores, size, pageBytes, s.Seed)
}
