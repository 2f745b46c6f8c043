package workloads

import (
	"fmt"
	"math/rand"

	"hbmsim/internal/memlog"
	"hbmsim/internal/trace"
)

// DenseMMConfig parameterises a dense matrix-multiplication trace (the
// paper's parameter sweep includes dense matrix multiplication alongside
// the sparse kernel).
type DenseMMConfig struct {
	// N is the square matrix dimension.
	N int
	// PageBytes is the page size; defaults to DefaultPageBytes.
	PageBytes int
}

func (c DenseMMConfig) withDefaults() DenseMMConfig {
	if c.PageBytes == 0 {
		c.PageBytes = DefaultPageBytes
	}
	return c
}

// DenseMMTrace runs the classical i-k-j matrix multiplication
// C = A * B over instrumented row-major arrays and returns its page trace.
// The i-k-j order streams B's rows and C's rows, the usual cache-friendly
// scalar loop order.
func DenseMMTrace(cfg DenseMMConfig, seed int64) (trace.Trace, error) {
	return denseMMTrace(cfg, seed, nil)
}

// denseMMTrace is DenseMMTrace logging into chunks taken from free,
// to which it hands them back once the log is mapped to pages.
func denseMMTrace(cfg DenseMMConfig, seed int64, free *memlog.FreeList) (trace.Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 {
		return nil, fmt.Errorf("workloads: densemm dimension must be positive, got %d", cfg.N)
	}
	n := cfg.N
	rng := rand.New(rand.NewSource(seed))
	rec := memlog.NewRecorder(free)
	defer rec.Reset()
	av := make([]float64, n*n)
	bv := make([]float64, n*n)
	for i := range av {
		av[i] = rng.Float64()
		bv[i] = rng.Float64()
	}
	a := memlog.FromSlice(rec, av, elemBytes)
	b := memlog.FromSlice(rec, bv, elemBytes)
	c := memlog.NewSlice[float64](rec, n*n, elemBytes)

	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a.Get(i*n + k)
			for j := 0; j < n; j++ {
				c.Set(i*n+j, c.Get(i*n+j)+aik*b.Get(k*n+j))
			}
		}
	}
	return rec.Trace(cfg.PageBytes)
}

// DenseMMWorkload builds a p-core workload of independent dense-matmul
// traces.
func DenseMMWorkload(cores int, cfg DenseMMConfig, baseSeed int64) (*trace.Workload, error) {
	cfg = cfg.withDefaults()
	name := fmt.Sprintf("densemm-n%d", cfg.N)
	return generate(name, cores, baseSeed, func(seed int64, free *memlog.FreeList) (trace.Trace, error) {
		return denseMMTrace(cfg, seed, free)
	})
}
