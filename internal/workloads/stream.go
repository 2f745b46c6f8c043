package workloads

import (
	"fmt"
	"math/rand"

	"hbmsim/internal/memlog"
	"hbmsim/internal/trace"
)

// StreamConfig parameterises a STREAM-triad trace: a[i] = b[i] + s*c[i],
// the canonical bandwidth-bound kernel (Laghari et al., cited in §1.3,
// studied STREAM on KNL).
type StreamConfig struct {
	// N is the vector length.
	N int
	// Iterations repeats the triad sweep; defaults to 1.
	Iterations int
	// PageBytes is the page size; defaults to DefaultPageBytes.
	PageBytes int
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Iterations == 0 {
		c.Iterations = 1
	}
	if c.PageBytes == 0 {
		c.PageBytes = DefaultPageBytes
	}
	return c
}

// StreamTrace runs the triad over instrumented vectors and returns its
// page trace: a purely sequential, zero-reuse reference stream.
func StreamTrace(cfg StreamConfig, seed int64) (trace.Trace, error) {
	return streamTrace(cfg, seed, nil)
}

// streamTrace is StreamTrace logging into chunks taken from free,
// to which it hands them back once the log is mapped to pages.
func streamTrace(cfg StreamConfig, seed int64, free *memlog.FreeList) (trace.Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 {
		return nil, fmt.Errorf("workloads: stream length must be positive, got %d", cfg.N)
	}
	if cfg.Iterations < 1 {
		return nil, fmt.Errorf("workloads: stream iterations must be >= 1, got %d", cfg.Iterations)
	}
	rng := rand.New(rand.NewSource(seed))
	scale := 1 + rng.Float64()
	rec := memlog.NewRecorder(free)
	defer rec.Reset()
	a := memlog.NewSlice[float64](rec, cfg.N, elemBytes)
	b := memlog.NewSlice[float64](rec, cfg.N, elemBytes)
	c := memlog.NewSlice[float64](rec, cfg.N, elemBytes)
	for it := 0; it < cfg.Iterations; it++ {
		for i := 0; i < cfg.N; i++ {
			a.Set(i, b.Get(i)+scale*c.Get(i))
		}
	}
	return rec.Trace(cfg.PageBytes)
}

// StreamWorkload builds a p-core workload of independent triad traces.
func StreamWorkload(cores int, cfg StreamConfig, baseSeed int64) (*trace.Workload, error) {
	cfg = cfg.withDefaults()
	name := fmt.Sprintf("stream-n%d-it%d", cfg.N, cfg.Iterations)
	return generate(name, cores, baseSeed, func(seed int64, free *memlog.FreeList) (trace.Trace, error) {
		return streamTrace(cfg, seed, free)
	})
}
