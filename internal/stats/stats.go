// Package stats provides small streaming statistics used throughout the
// simulator: Welford mean/variance accumulators, min/max tracking and
// logarithmic histograms.
//
// The paper's "inconsistency" metric is the population standard deviation of
// all response times; Welford's algorithm computes it in one pass with O(1)
// memory, which matters because a single simulation can serve hundreds of
// millions of requests.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Welford accumulates a running mean and variance using Welford's
// numerically stable online algorithm. The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// AddN folds n copies of the observation x into the accumulator. It is
// equivalent to calling Add(x) n times but runs in O(1).
func (w *Welford) AddN(x float64, n uint64) {
	if n == 0 {
		return
	}
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	// Chan et al. parallel combination of (w) with a batch whose mean is x
	// and within-batch variance is zero.
	nb := float64(n)
	na := float64(w.n)
	delta := x - w.mean
	total := na + nb
	w.mean += delta * nb / total
	w.m2 += delta * delta * na * nb / total
	w.n += n
}

// Merge combines another accumulator into w (parallel Welford/Chan merge).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	na, nb := float64(w.n), float64(o.n)
	delta := o.mean - w.mean
	total := na + nb
	w.mean += delta * nb / total
	w.m2 += o.m2 + delta*delta*na*nb/total
	w.n += o.n
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean, or 0 for an empty accumulator.
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest observation, or 0 for an empty accumulator.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}

// Max returns the largest observation, or 0 for an empty accumulator.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.max
}

// VariancePop returns the population variance (dividing by n), matching the
// paper's definition of inconsistency as the stddev over all observations.
func (w *Welford) VariancePop() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StddevPop returns the population standard deviation.
func (w *Welford) StddevPop() float64 { return math.Sqrt(w.VariancePop()) }

func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.3f stddev=%.3f min=%g max=%g",
		w.n, w.Mean(), w.StddevPop(), w.Min(), w.Max())
}

// Histogram is a base-2 logarithmic histogram over non-negative integers.
// Bucket i counts observations x with 2^(i-1) <= x < 2^i (bucket 0 counts
// x == 0 and x == 1 observations land in bucket 1). It is used to summarise
// response-time distributions compactly.
type Histogram struct {
	buckets []uint64
	total   uint64
}

// bucketIndex returns the bucket for observation x.
func bucketIndex(x uint64) int {
	if x == 0 {
		return 0
	}
	return bits.Len64(x)
}

// Add records one observation.
func (h *Histogram) Add(x uint64) {
	i := bucketIndex(x)
	for len(h.buckets) <= i {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[i]++
	h.total++
}

// AddN records n identical observations of x in O(1): the result is
// bit-identical to calling Add(x) n times (bucket counts are exact
// integers, so batching cannot drift). It exists for the simulator's
// cruising cores, whose runs of unit response times fold into the
// histogram in one call.
func (h *Histogram) AddN(x, n uint64) {
	if n == 0 {
		return
	}
	i := bucketIndex(x)
	for len(h.buckets) <= i {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[i] += n
	h.total += n
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Buckets returns a copy of the bucket counts. Bucket i covers
// [2^(i-1), 2^i) for i >= 1; bucket 0 covers {0}.
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.buckets))
	copy(out, h.buckets)
	return out
}

// QuantileUpper returns an upper bound for the q-quantile (0 <= q <= 1):
// the upper edge of the bucket containing that rank.
func (h *Histogram) QuantileUpper(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			if i == 0 {
				return 0
			}
			if i >= 64 {
				// Bucket 64 holds observations >= 2^63; its upper edge
				// 2^64 is not representable, and 1<<64 would shift-
				// overflow to 0 — the worst possible "upper bound".
				return math.MaxUint64
			}
			return 1 << uint(i)
		}
	}
	if n := len(h.buckets); n > 0 && n <= 64 {
		return 1 << uint(n)
	}
	return math.MaxUint64
}

// Merge combines another histogram into h.
func (h *Histogram) Merge(o *Histogram) {
	for len(h.buckets) < len(o.buckets) {
		h.buckets = append(h.buckets, 0)
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.total += o.total
}
