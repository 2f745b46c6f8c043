// Package stackdist computes LRU stack distances (Mattson et al.'s
// classic one-pass algorithm) and the miss-ratio curves they induce: the
// number of misses a trace incurs in an LRU cache of *every* size k at
// once. The curves explain where the paper's Figure 2 crossovers come
// from — they locate each workload's working-set knees — and they power an
// optimal static-partitioning baseline (utility-based partitioning à la
// Qureshi & Patt) against which the dynamic arbitration policies can be
// compared.
package stackdist

import (
	"fmt"

	"hbmsim/internal/trace"
)

// Curve is a miss-ratio curve: for any cache size k it answers how many
// LRU misses the trace incurs. It keeps one count per stack distance, so
// its size grows with the trace's distinct pages, not its length. A
// Streaming builds it one access at a time.
type Curve struct {
	// counts[d-1] counts the reuses at stack distance d, as a Fenwick
	// tree for O(log d) prefix counts. Distances never exceed the number
	// of distinct pages.
	counts fenwick[int64]
	// cold counts first-touch accesses (misses at every size, one per
	// distinct page); finite counts reuses.
	cold, finite uint64
}

// CurveOf computes the miss-ratio curve of one trace.
func CurveOf(tr trace.Trace) Curve {
	s := NewStreaming()
	for _, p := range tr {
		s.Observe(p)
	}
	return s.Curve
}

// Total returns the trace length.
func (c Curve) Total() uint64 { return c.cold + c.finite }

// Unique returns the number of distinct pages (== cold misses).
func (c Curve) Unique() int { return int(c.cold) }

// countLE returns the number of reuses at distance <= d.
func (c Curve) countLE(d int) uint64 {
	if d < 1 || len(c.counts) == 0 {
		return 0
	}
	return uint64(c.counts.sum(min(d, len(c.counts)-1) - 1))
}

// Misses returns the number of LRU misses in a cache of size k (k >= 0;
// k = 0 misses everything): the cold accesses plus the reuses at a
// distance greater than k.
func (c Curve) Misses(k int) uint64 {
	if k <= 0 {
		return c.Total()
	}
	return c.cold + c.finite - c.countLE(k)
}

// MissRatio returns Misses(k) / Total, or 0 for an empty trace.
func (c Curve) MissRatio(k int) float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.Misses(k)) / float64(c.Total())
}

// DistanceQuantile returns the q-quantile (0..1) of the finite stack
// distances — e.g. 0.9 answers "a cache of what size would catch 90% of
// the reuses?". Returns 0 when there are no reuses.
func (c Curve) DistanceQuantile(q float64) int64 {
	return DistanceQuantile([]Curve{c}, q)
}

// DistanceQuantile returns the q-quantile of the finite stack distances
// pooled over the curves: the distance of rank int(q*(n-1)) among the n
// reuses sorted ascending, rank 0 for q <= 0 and n-1 for q >= 1. Returns
// 0 when there are no reuses.
func DistanceQuantile(curves []Curve, q float64) int64 {
	var n uint64
	size := 0
	for _, c := range curves {
		n += c.finite
		size = max(size, len(c.counts)-1)
	}
	if n == 0 {
		return 0
	}
	var rank uint64
	switch {
	case q <= 0:
		rank = 0
	case q >= 1:
		rank = n - 1
	default:
		rank = uint64(q * float64(n-1))
	}
	// Find the smallest d with more than rank reuses at distance <= d by
	// descending the curves' trees together. Their sizes are powers of
	// two, so node i of a tree over m distances counts the distances
	// (i-lowbit(i), i] when i <= m, all m of them when i is a larger
	// power of two, and none otherwise.
	pos := 0
	for step := size; step > 0; step /= 2 {
		i := pos + step
		var below uint64
		for _, c := range curves {
			switch m := len(c.counts) - 1; {
			case i <= m:
				below += uint64(c.counts[i])
			case i&(i-1) == 0 && m > 0:
				below += uint64(c.counts[m])
			}
		}
		if below <= rank {
			pos, rank = i, rank-below
		}
	}
	return int64(pos + 1)
}

// OptimalPartition splits k cache slots among the cores to minimise total
// LRU misses under static partitioning, using lookahead greedy marginal
// utility (Qureshi & Patt's utility-based partitioning): repeatedly give
// some core the block of slots with the highest miss reduction *per slot*.
// The lookahead handles the non-convex knees cyclic workloads produce
// (where one extra slot gains nothing but four extra slots gain
// everything). It returns the per-core allocation and the resulting total
// misses.
func OptimalPartition(curves []Curve, k int) (alloc []int, totalMisses uint64, err error) {
	if k < 0 {
		return nil, 0, fmt.Errorf("stackdist: negative capacity %d", k)
	}
	alloc = make([]int, len(curves))
	misses := make([]uint64, len(curves))
	for i, c := range curves {
		misses[i] = c.Misses(0)
	}
	remaining := k
	for remaining > 0 {
		best, bestD := -1, 0
		bestRate := 0.0
		for i, c := range curves {
			// Best miss reduction per slot over all lookahead depths.
			for d := 1; d <= remaining; d++ {
				next := c.Misses(alloc[i] + d)
				gain := float64(misses[i] - next)
				if gain == 0 {
					continue
				}
				if rate := gain / float64(d); rate > bestRate {
					bestRate = rate
					best = i
					bestD = d
				}
			}
		}
		if best < 0 {
			break // no core benefits from more slots
		}
		alloc[best] += bestD
		misses[best] = curves[best].Misses(alloc[best])
		remaining -= bestD
	}
	for _, m := range misses {
		totalMisses += m
	}
	return alloc, totalMisses, nil
}

// EvenPartition computes the total misses when k slots are split evenly
// (the effect FIFO arbitration approximates: HBM "spread like butter
// scraped over too much bread").
func EvenPartition(curves []Curve, k int) uint64 {
	if len(curves) == 0 {
		return 0
	}
	share := k / len(curves)
	extra := k % len(curves)
	var total uint64
	for i, c := range curves {
		kk := share
		if i < extra {
			kk++
		}
		total += c.Misses(kk)
	}
	return total
}
