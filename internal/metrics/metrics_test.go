package metrics

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", ""); again != c {
		t.Fatal("Counter is not get-or-create")
	}

	g := r.Gauge("workers", "busy workers")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge after Inc/Inc/Dec = %d, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Fatalf("sum = %g, want 106", h.Sum())
	}
	cum := h.Cumulative()
	want := []uint64{2, 3, 4, 5} // <=1: {0.5, 1}; <=2: +1.5; <=4: +3; +Inf: +100
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", cum, want)
		}
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("buckets not cumulative: %v", cum)
		}
	}
}

// TestHistogramAddBuckets: a batch of integer observations added by
// bucket is bit-identical to Observing each one, interleaved with other
// observations in any order; an empty batch records nothing.
func TestHistogramAddBuckets(t *testing.T) {
	bounds := []float64{1, 2, 4}
	one, batched := NewHistogram(bounds), NewHistogram(bounds)
	for _, v := range []float64{3, 1, 7} {
		one.Observe(v)
	}
	for i := 0; i < 1000; i++ {
		one.Observe(1)
	}
	one.Observe(0)
	one.Observe(0)
	one.Observe(9)

	batched.AddBuckets([]uint64{1000, 0, 0, 0}, 1000)
	batched.AddBuckets([]uint64{0, 0, 0, 0}, 0)
	for _, v := range []float64{7, 3, 1} {
		batched.Observe(v)
	}
	batched.AddBuckets([]uint64{2, 0, 0, 0, 0, 1}, 9) // past the last bound: +Inf

	if one.Count() != batched.Count() || one.Sum() != batched.Sum() {
		t.Fatalf("count/sum = %d/%g, want %d/%g", batched.Count(), batched.Sum(), one.Count(), one.Sum())
	}
	if a, b := one.Cumulative(), batched.Cumulative(); !slices.Equal(a, b) {
		t.Fatalf("cumulative = %v, want %v", b, a)
	}
}

func TestHistogramBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v accepted", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge lookup of a counter name did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestRegistryBadNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name accepted")
		}
	}()
	r.Counter("bad name!", "")
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Inc()
	r.Gauge("b", "").Set(1)
	r.Histogram("c", "", []float64{1}).Observe(0.5)
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v", snap)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c", "")
			h := r.Histogram("h", "", []float64{1, 10, 100})
			g := r.Gauge("g", "")
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 150))
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", "", []float64{1, 10, 100}).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "jobs run").Add(7)
	r.Gauge("busy", "").Set(-2)
	h := r.Histogram("wait_seconds", "queue wait", []float64{1, 2.5})
	h.Observe(0.3)
	h.Observe(2)
	h.Observe(9)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP jobs_total jobs run\n# TYPE jobs_total counter\njobs_total 7\n",
		"# TYPE busy gauge\nbusy -2\n",
		"# TYPE wait_seconds histogram\n",
		"wait_seconds_bucket{le=\"1\"} 1\n",
		"wait_seconds_bucket{le=\"2.5\"} 2\n",
		"wait_seconds_bucket{le=\"+Inf\"} 3\n",
		"wait_seconds_sum 11.3\n",
		"wait_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Inc()
	r.Histogram("h", "", []float64{5}).Observe(3)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"a_total"`, `"kind": "counter"`, `"+Inf": 1`, `"5": 1`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q in:\n%s", want, out)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Fatalf("ExpBuckets = %v", exp)
		}
	}
}
