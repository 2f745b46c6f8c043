package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveStats computes mean and population variance directly.
func naiveStats(xs []float64) (mean, varPop float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		varPop += (x - mean) * (x - mean)
	}
	varPop /= float64(len(xs))
	return mean, varPop
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.StddevPop() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Fatalf("zero-value Welford should report zeros, got %v", &w)
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.N() != 1 || w.Mean() != 42 || w.VariancePop() != 0 {
		t.Fatalf("single observation: got %v", &w)
	}
	if w.Min() != 42 || w.Max() != 42 {
		t.Fatalf("min/max of single observation: %g/%g", w.Min(), w.Max())
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Mean() != 5 {
		t.Errorf("mean: got %g, want 5", w.Mean())
	}
	if w.StddevPop() != 2 {
		t.Errorf("population stddev: got %g, want 2", w.StddevPop())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max: got %g/%g, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64()*100 + 50
			w.Add(xs[i])
		}
		mean, varPop := naiveStats(xs)
		if math.Abs(w.Mean()-mean) > 1e-9 {
			t.Fatalf("trial %d: mean %g vs naive %g", trial, w.Mean(), mean)
		}
		if math.Abs(w.VariancePop()-varPop) > 1e-6 {
			t.Fatalf("trial %d: var %g vs naive %g", trial, w.VariancePop(), varPop)
		}
	}
}

func TestWelfordAddNEquivalent(t *testing.T) {
	var a, b Welford
	a.Add(3)
	a.Add(7)
	for i := 0; i < 5; i++ {
		a.Add(1)
	}
	b.Add(3)
	b.Add(7)
	b.AddN(1, 5)
	if a.N() != b.N() || math.Abs(a.Mean()-b.Mean()) > 1e-12 || math.Abs(a.VariancePop()-b.VariancePop()) > 1e-12 {
		t.Fatalf("AddN mismatch: %v vs %v", &a, &b)
	}
	if b.Min() != 1 || b.Max() != 7 {
		t.Fatalf("AddN min/max: got %g/%g", b.Min(), b.Max())
	}
}

func TestWelfordAddNZero(t *testing.T) {
	var w Welford
	w.Add(5)
	w.AddN(100, 0)
	if w.N() != 1 || w.Mean() != 5 {
		t.Fatalf("AddN(x, 0) must be a no-op, got %v", &w)
	}
}

func TestWelfordAddNIntoEmpty(t *testing.T) {
	var w Welford
	w.AddN(4, 3)
	if w.N() != 3 || w.Mean() != 4 || w.VariancePop() != 0 {
		t.Fatalf("AddN into empty: got %v", &w)
	}
}

func TestWelfordMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		na, nb := rng.Intn(50), 1+rng.Intn(50)
		var a, b, whole Welford
		for i := 0; i < na; i++ {
			x := rng.Float64() * 10
			a.Add(x)
			whole.Add(x)
		}
		for i := 0; i < nb; i++ {
			x := rng.Float64()*10 - 5
			b.Add(x)
			whole.Add(x)
		}
		a.Merge(b)
		if a.N() != whole.N() {
			t.Fatalf("merge count: %d vs %d", a.N(), whole.N())
		}
		if math.Abs(a.Mean()-whole.Mean()) > 1e-9 || math.Abs(a.VariancePop()-whole.VariancePop()) > 1e-9 {
			t.Fatalf("merge stats diverge: %v vs %v", &a, &whole)
		}
		if a.Min() != whole.Min() || a.Max() != whole.Max() {
			t.Fatalf("merge min/max diverge: %v vs %v", &a, &whole)
		}
	}
}

func TestWelfordMergeEmptyCases(t *testing.T) {
	var empty, full Welford
	full.Add(1)
	full.Add(2)
	cp := full
	full.Merge(empty)
	if full != cp {
		t.Fatalf("merging empty changed accumulator")
	}
	empty.Merge(full)
	if empty != full {
		t.Fatalf("merging into empty should copy, got %v vs %v", &empty, &full)
	}
}

// TestWelfordPropertyMergeCommutes checks, via testing/quick, that merging
// two accumulators in either order yields the same statistics.
func TestWelfordPropertyMergeCommutes(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(vs []float64) []float64 {
			out := vs[:0]
			for _, v := range vs {
				if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
					out = append(out, v)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a1, b1, a2, b2 Welford
		for _, x := range xs {
			a1.Add(x)
			a2.Add(x)
		}
		for _, y := range ys {
			b1.Add(y)
			b2.Add(y)
		}
		a1.Merge(b1) // xs then ys
		b2.Merge(a2) // ys then xs
		if a1.N() != b2.N() {
			return false
		}
		if a1.N() == 0 {
			return true
		}
		scale := 1 + math.Abs(a1.Mean())
		return math.Abs(a1.Mean()-b2.Mean()) < 1e-6*scale &&
			math.Abs(a1.VariancePop()-b2.VariancePop()) < 1e-3*(1+a1.VariancePop())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, x := range []uint64{0, 1, 1, 2, 3, 4, 7, 8, 1024} {
		h.Add(x)
	}
	if h.Total() != 9 {
		t.Fatalf("total: got %d, want 9", h.Total())
	}
	b := h.Buckets()
	// bucket 0 = {0}, bucket 1 = {1}, bucket 2 = [2,4), bucket 3 = [4,8),
	// bucket 4 = [8,16), bucket 11 = [1024, 2048).
	want := map[int]uint64{0: 1, 1: 2, 2: 2, 3: 2, 4: 1, 11: 1}
	for i, c := range b {
		if c != want[i] {
			t.Errorf("bucket %d: got %d, want %d", i, c, want[i])
		}
	}
}

func TestHistogramQuantileUpper(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Add(1)
	}
	for i := 0; i < 10; i++ {
		h.Add(1000)
	}
	if got := h.QuantileUpper(0.5); got != 2 {
		t.Errorf("p50: got %d, want 2 (upper edge of bucket holding 1)", got)
	}
	if got := h.QuantileUpper(0.99); got != 1024 {
		t.Errorf("p99: got %d, want 1024", got)
	}
	var empty Histogram
	if empty.QuantileUpper(0.5) != 0 {
		t.Errorf("empty histogram quantile should be 0")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Add(1)
	a.Add(100)
	b.Add(5)
	a.Merge(&b)
	if a.Total() != 3 {
		t.Fatalf("merged total: got %d, want 3", a.Total())
	}
}

// TestHistogramPropertyBucketBounds: every added value falls in a bucket
// whose range contains it.
func TestHistogramPropertyBucketBounds(t *testing.T) {
	f := func(x uint64) bool {
		i := bucketIndex(x)
		switch {
		case x == 0:
			return i == 0
		default:
			lo := uint64(1) << uint(i-1)
			if i == 1 {
				lo = 1
			}
			return x >= lo && (i >= 64 || x < uint64(1)<<uint(i))
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileUpperTopBucket is the regression for the shift overflow:
// observations at or above 2^63 land in bucket 64, whose upper edge 2^64
// is unrepresentable — QuantileUpper used to compute 1<<64 == 0, the
// worst possible "upper bound". It must clamp to MaxUint64.
func TestQuantileUpperTopBucket(t *testing.T) {
	var h Histogram
	h.Add(math.MaxUint64)
	if got := h.QuantileUpper(1); got != math.MaxUint64 {
		t.Fatalf("QuantileUpper(1) over a MaxUint64 observation = %d, want MaxUint64", got)
	}
	h.Add(1 << 63)
	if got := h.QuantileUpper(0.5); got != math.MaxUint64 {
		t.Fatalf("QuantileUpper(0.5) = %d, want MaxUint64", got)
	}
	// One bucket below the clamp still reports a real power of two.
	var h2 Histogram
	h2.Add(1<<63 - 1) // bucket 63: [2^62, 2^63)
	if got := h2.QuantileUpper(1); got != 1<<63 {
		t.Fatalf("QuantileUpper(1) just below the top bucket = %d, want 2^63", got)
	}
}
