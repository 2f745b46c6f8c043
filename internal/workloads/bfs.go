package workloads

import (
	"fmt"
	"math/rand"

	"hbmsim/internal/memlog"
	"hbmsim/internal/trace"
)

// BFSConfig parameterises an instrumented breadth-first search over a
// random graph. Graph analytics is a motivating HBM workload in the
// paper's related work (Slota & Rajamanickam report 2-5x KNL speedups for
// instances larger than HBM); BFS over CSR is its canonical kernel —
// sequential row-pointer reads mixed with irregular neighbour gathers.
type BFSConfig struct {
	// Vertices is the graph size.
	Vertices int
	// Degree is the average out-degree (Erdős–Rényi-style random edges).
	Degree int
	// PageBytes is the page size; defaults to DefaultPageBytes.
	PageBytes int
}

func (c BFSConfig) withDefaults() BFSConfig {
	if c.Degree == 0 {
		c.Degree = 8
	}
	if c.PageBytes == 0 {
		c.PageBytes = DefaultPageBytes
	}
	return c
}

// BFSTrace runs a full BFS (restarting from every still-unvisited vertex,
// so the whole graph is covered) over instrumented CSR arrays and returns
// the page trace of every dereference.
func BFSTrace(cfg BFSConfig, seed int64) (trace.Trace, error) {
	return bfsTrace(cfg, seed, nil)
}

// bfsTrace is BFSTrace logging into chunks taken from free,
// to which it hands them back once the log is mapped to pages.
func bfsTrace(cfg BFSConfig, seed int64, free *memlog.FreeList) (trace.Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.Vertices <= 0 {
		return nil, fmt.Errorf("workloads: bfs vertex count must be positive, got %d", cfg.Vertices)
	}
	if cfg.Degree < 1 {
		return nil, fmt.Errorf("workloads: bfs degree must be >= 1, got %d", cfg.Degree)
	}
	n := cfg.Vertices
	rng := rand.New(rand.NewSource(seed))

	// Build a random CSR graph (uninstrumented: the paper's traces log
	// the kernel, not the generator).
	rowPtr := make([]int64, n+1)
	var col []int64
	for v := 0; v < n; v++ {
		rowPtr[v] = int64(len(col))
		deg := rng.Intn(2*cfg.Degree + 1)
		for e := 0; e < deg; e++ {
			col = append(col, int64(rng.Intn(n)))
		}
	}
	rowPtr[n] = int64(len(col))

	rec := memlog.NewRecorder(free)
	defer rec.Reset()
	rp := memlog.FromSlice(rec, rowPtr, elemBytes)
	cl := memlog.FromSlice(rec, col, elemBytes)
	visited := memlog.NewSlice[int64](rec, n, elemBytes)
	queue := memlog.NewSlice[int64](rec, n, elemBytes)

	for start := 0; start < n; start++ {
		if visited.Get(start) != 0 {
			continue
		}
		visited.Set(start, 1)
		head, tail := 0, 0
		queue.Set(tail, int64(start))
		tail++
		for head < tail {
			v := int(queue.Get(head))
			head++
			lo, hi := rp.Get(v), rp.Get(v+1)
			for e := lo; e < hi; e++ {
				w := int(cl.Get(int(e)))
				if visited.Get(w) == 0 {
					visited.Set(w, 1)
					queue.Set(tail, int64(w))
					tail++
				}
			}
		}
	}
	return rec.Trace(cfg.PageBytes)
}

// BFSWorkload builds a p-core workload of independent BFS traces over
// independently drawn graphs.
func BFSWorkload(cores int, cfg BFSConfig, baseSeed int64) (*trace.Workload, error) {
	cfg = cfg.withDefaults()
	name := fmt.Sprintf("bfs-v%d-d%d", cfg.Vertices, cfg.Degree)
	return generate(name, cores, baseSeed, func(seed int64, free *memlog.FreeList) (trace.Trace, error) {
		return bfsTrace(cfg, seed, free)
	})
}
