package workloads

import (
	"fmt"
	"math/rand"

	"hbmsim/internal/memlog"
	"hbmsim/internal/model"
	"hbmsim/internal/trace"
)

// SyntheticKind names a synthetic reference-stream distribution.
type SyntheticKind string

// Synthetic stream kinds: Uniform picks pages uniformly at random, Zipf
// draws from a Zipf distribution (hot pages dominate, like pointer-heavy
// codes), and Strided walks the page set with a fixed stride (like column
// accesses to a row-major matrix).
const (
	Uniform SyntheticKind = "uniform"
	Zipfian SyntheticKind = "zipf"
	Strided SyntheticKind = "strided"
)

// SyntheticConfig parameterises a synthetic trace.
type SyntheticConfig struct {
	// Kind selects the distribution; defaults to Uniform.
	Kind SyntheticKind
	// Refs is the trace length.
	Refs int
	// Pages is the size of the page universe referenced.
	Pages int
	// ZipfS is the Zipf exponent (> 1); defaults to 1.2. Zipf only.
	ZipfS float64
	// Stride is the walk stride; defaults to 7. Strided only.
	Stride int
}

func (c SyntheticConfig) withDefaults() SyntheticConfig {
	if c.Kind == "" {
		c.Kind = Uniform
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.Stride == 0 {
		c.Stride = 7
	}
	return c
}

// SyntheticTrace generates one core's synthetic trace.
func SyntheticTrace(cfg SyntheticConfig, seed int64) (trace.Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.Refs <= 0 || cfg.Pages <= 0 {
		return nil, fmt.Errorf("workloads: synthetic refs (%d) and pages (%d) must be positive", cfg.Refs, cfg.Pages)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make(trace.Trace, cfg.Refs)
	switch cfg.Kind {
	case Uniform:
		for i := range out {
			out[i] = model.PageID(rng.Intn(cfg.Pages))
		}
	case Zipfian:
		if cfg.ZipfS <= 1 {
			return nil, fmt.Errorf("workloads: zipf exponent must be > 1, got %g", cfg.ZipfS)
		}
		z := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Pages-1))
		for i := range out {
			out[i] = model.PageID(z.Uint64())
		}
	case Strided:
		if cfg.Stride < 1 {
			return nil, fmt.Errorf("workloads: stride must be >= 1, got %d", cfg.Stride)
		}
		pos := rng.Intn(cfg.Pages)
		for i := range out {
			out[i] = model.PageID(pos)
			pos = (pos + cfg.Stride) % cfg.Pages
		}
	default:
		return nil, fmt.Errorf("workloads: unknown synthetic kind %q", cfg.Kind)
	}
	return out, nil
}

// SyntheticWorkload builds a p-core workload of independent synthetic
// traces.
func SyntheticWorkload(cores int, cfg SyntheticConfig, baseSeed int64) (*trace.Workload, error) {
	cfg = cfg.withDefaults()
	name := fmt.Sprintf("%s-r%d-p%d", cfg.Kind, cfg.Refs, cfg.Pages)
	return generate(name, cores, baseSeed, func(seed int64, _ *memlog.FreeList) (trace.Trace, error) {
		return SyntheticTrace(cfg, seed)
	})
}
