package workloads

import (
	"fmt"
	"math/rand"

	"hbmsim/internal/memlog"
	"hbmsim/internal/trace"
)

// SpGEMMConfig parameterises the sparse matrix-matrix multiplication trace
// (the paper's Dataset 2: TACO SpGEMM on two 600x600 matrices where
// approximately 10% of the elements exist).
type SpGEMMConfig struct {
	// N is the square matrix dimension. The paper uses 600.
	N int
	// Density is the fraction of nonzero elements, ~0.10 in the paper.
	Density float64
	// PageBytes is the page size; defaults to DefaultPageBytes.
	PageBytes int
}

func (c SpGEMMConfig) withDefaults() SpGEMMConfig {
	if c.PageBytes == 0 {
		c.PageBytes = DefaultPageBytes
	}
	if c.Density == 0 {
		c.Density = 0.10
	}
	return c
}

// csr is an instrumented CSR matrix: every access to its arrays is logged.
type csr struct {
	n      int
	rowPtr *memlog.Slice[int64]
	colIdx *memlog.Slice[int64]
	vals   *memlog.Slice[float64]
}

// randomCSR builds an n x n CSR matrix where each element exists
// independently with probability density, values uniform in (0, 1].
func randomCSR(rec *memlog.Recorder, n int, density float64, rng *rand.Rand) csr {
	rowPtr := make([]int64, n+1)
	var colIdx []int64
	var vals []float64
	for i := 0; i < n; i++ {
		rowPtr[i] = int64(len(colIdx))
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				colIdx = append(colIdx, int64(j))
				vals = append(vals, 1-rng.Float64())
			}
		}
	}
	rowPtr[n] = int64(len(colIdx))
	return csr{
		n:      n,
		rowPtr: memlog.FromSlice(rec, rowPtr, elemBytes),
		colIdx: memlog.FromSlice(rec, colIdx, elemBytes),
		vals:   memlog.FromSlice(rec, vals, elemBytes),
	}
}

// SpGEMMTrace multiplies two random sparse matrices with Gustavson's
// row-by-row algorithm over a dense workspace — the loop structure TACO
// emits for CSR = CSR * CSR with a workspace — behind instrumented arrays,
// and returns the page trace of every dereference.
func SpGEMMTrace(cfg SpGEMMConfig, seed int64) (trace.Trace, error) {
	return spgemmTrace(cfg, seed, nil)
}

// spgemmTrace is SpGEMMTrace logging into chunks taken from free,
// to which it hands them back once the log is mapped to pages.
func spgemmTrace(cfg SpGEMMConfig, seed int64, free *memlog.FreeList) (trace.Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 {
		return nil, fmt.Errorf("workloads: spgemm dimension must be positive, got %d", cfg.N)
	}
	if cfg.Density < 0 || cfg.Density > 1 {
		return nil, fmt.Errorf("workloads: spgemm density must be in [0, 1], got %g", cfg.Density)
	}
	rng := rand.New(rand.NewSource(seed))
	rec := memlog.NewRecorder(free)
	defer rec.Reset()
	a := randomCSR(rec, cfg.N, cfg.Density, rng)
	b := randomCSR(rec, cfg.N, cfg.Density, rng)

	// Workspace: dense accumulator plus a row-stamp marker array, the
	// standard TACO workspace lowering.
	acc := memlog.NewSlice[float64](rec, cfg.N, elemBytes)
	mark := memlog.NewSlice[int64](rec, cfg.N, elemBytes)
	for j := 0; j < cfg.N; j++ {
		mark.Set(j, -1)
	}

	// Output CSR, sized for the worst case the accumulator can produce.
	cRow := memlog.NewSlice[int64](rec, cfg.N+1, elemBytes)
	maxNNZ := cfg.N * cfg.N
	cCol := memlog.NewSlice[int64](rec, maxNNZ, elemBytes)
	cVal := memlog.NewSlice[float64](rec, maxNNZ, elemBytes)

	nnz := 0
	for i := 0; i < cfg.N; i++ {
		cRow.Set(i, int64(nnz))
		aStart, aEnd := int(a.rowPtr.Get(i)), int(a.rowPtr.Get(i+1))
		for ak := aStart; ak < aEnd; ak++ {
			k := int(a.colIdx.Get(ak))
			av := a.vals.Get(ak)
			bStart, bEnd := int(b.rowPtr.Get(k)), int(b.rowPtr.Get(k+1))
			for bk := bStart; bk < bEnd; bk++ {
				j := int(b.colIdx.Get(bk))
				bv := b.vals.Get(bk)
				if mark.Get(j) != int64(i) {
					mark.Set(j, int64(i))
					acc.Set(j, av*bv)
				} else {
					acc.Set(j, acc.Get(j)+av*bv)
				}
			}
		}
		// Scan the workspace in column order to emit the sorted row, as
		// TACO's workspace lowering does.
		for j := 0; j < cfg.N; j++ {
			if mark.Get(j) == int64(i) {
				cCol.Set(nnz, int64(j))
				cVal.Set(nnz, acc.Get(j))
				nnz++
			}
		}
	}
	cRow.Set(cfg.N, int64(nnz))
	return rec.Trace(cfg.PageBytes)
}

// SpGEMMWorkload builds a p-core workload of independent SpGEMM traces.
func SpGEMMWorkload(cores int, cfg SpGEMMConfig, baseSeed int64) (*trace.Workload, error) {
	cfg = cfg.withDefaults()
	name := fmt.Sprintf("spgemm-n%d-d%g", cfg.N, cfg.Density)
	return generate(name, cores, baseSeed, func(seed int64, free *memlog.FreeList) (trace.Trace, error) {
		return spgemmTrace(cfg, seed, free)
	})
}
