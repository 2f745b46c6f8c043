// Package metrics provides lock-free runtime counters, gauges, and
// fixed-bucket histograms behind a named registry, with Prometheus-text
// and expvar-style JSON exposition.
//
// The package exists so long-running entry points (cmd/hbmsweep driving a
// parameter sweep, cmd/hbmsim driving one large simulation) can expose
// what they are doing *while* they run, instead of only printing tables at
// the end. Instruments are updated with single atomic operations, so they
// are safe to bump from the simulation goroutine and from sweep workers
// while an HTTP scraper reads them concurrently; the snapshot a reader
// sees is per-instrument consistent (each value is one atomic load), not a
// cross-instrument transaction, which is the usual contract for
// Prometheus-style metrics.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an int64 value that may go up and down. The zero value is ready
// to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one. Convenience for occupancy gauges (queue depth, running
// jobs) that move by single admissions and completions.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a float64 value that may go up and down, stored as
// atomic bits. It exists for ratio-style instruments (a competitive
// ratio, a miss ratio) where the integer Gauge would truncate; it is
// exposed as a Prometheus gauge.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts float64 observations into fixed buckets chosen at
// construction. Buckets are stored non-cumulatively and exposed
// cumulatively (Prometheus convention). All methods are safe for
// concurrent use; Observe is two atomic adds plus a CAS loop for the sum.
type Histogram struct {
	// bounds holds the inclusive upper bound of each bucket, ascending; an
	// implicit +Inf bucket follows the last bound.
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds. An implicit +Inf bucket is always appended. It panics on empty
// or non-ascending bounds, since bucket layouts are compile-time choices.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; sort.SearchFloat64s uses
	// >= semantics via "smallest i such that bounds[i] >= v".
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// AddBuckets records a batch of observations in one update: counts[i]
// more in bucket i, where entries past the last bound add to the +Inf
// bucket, and sum added to the running sum. For integer-valued
// observations whose running sum stays below 2^53 every partial sum is
// an exactly representable float64, so the result is bit-identical to
// Observing each value, in any interleaving with other observations.
func (h *Histogram) AddBuckets(counts []uint64, sum float64) {
	var n uint64
	for i, c := range counts {
		h.counts[min(i, len(h.bounds))].Add(c)
		n += c
	}
	h.count.Add(n)
	h.addSum(sum)
}

// addSum adds d to the running sum with a CAS loop.
func (h *Histogram) addSum(d float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds (without the implicit +Inf).
// The slice is the histogram's own storage; treat it as read-only.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Cumulative returns the cumulative bucket counts: Cumulative()[i] is the
// number of observations <= Bounds()[i], and the final entry (the +Inf
// bucket) equals Count() as of the same pass. Concurrent Observes may land
// between loads; each entry is still monotone in i because the pass adds
// bucket counts left to right.
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		out[i] = run
	}
	return out
}

// Kind discriminates the instrument types in a Snapshot.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindFloatGauge
)

// String returns the Prometheus TYPE keyword for the kind. Integer and
// float gauges are both "gauge" on the wire; the distinction is purely a
// storage choice.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge, KindFloatGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Snapshot is one instrument's state at a point in time.
type Snapshot struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	Kind Kind   `json:"-"`
	// Value carries the counter or gauge reading (unused for histograms).
	Value float64 `json:"value"`
	// Bounds/Cumulative/Sum/Count carry the histogram state: Cumulative[i]
	// counts observations <= Bounds[i], with the final +Inf entry equal to
	// Count.
	Bounds     []float64 `json:"bounds,omitempty"`
	Cumulative []uint64  `json:"cumulative,omitempty"`
	Sum        float64   `json:"sum,omitempty"`
	Count      uint64    `json:"count,omitempty"`
}

// validName is the Prometheus metric-name grammar; enforcing it at
// registration keeps the text exposition valid by construction.
var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Registry is a named set of instruments. Get-or-create accessors make
// registration idempotent, so independent subsystems can share one
// registry without coordinating initialisation order. A nil *Registry is
// legal everywhere and turns every accessor into a no-op instrument, which
// lets hot paths stay unconditional:
//
//	var reg *metrics.Registry // possibly nil
//	reg.Counter("ticks_total", "...").Inc() // safe either way
type Registry struct {
	mu   sync.RWMutex
	ents map[string]*entry
}

type entry struct {
	kind Kind
	help string
	c    *Counter
	g    *Gauge
	fg   *FloatGauge
	h    *Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{ents: map[string]*entry{}} }

func (r *Registry) lookup(name string, kind Kind) *entry {
	r.mu.RLock()
	e := r.ents[name]
	r.mu.RUnlock()
	if e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %q registered as %v, requested as %v", name, e.kind, kind))
		}
		return e
	}
	return nil
}

func (r *Registry) create(name, help string, kind Kind, mk func() *entry) *entry {
	if !validName.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.ents[name]; e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %q registered as %v, requested as %v", name, e.kind, kind))
		}
		return e
	}
	e := mk()
	e.kind = kind
	e.help = help
	r.ents[name] = e
	return e
}

// Counter returns the counter with the given name, creating it on first
// use. help documents the metric in expositions; the first non-empty help
// wins. A nil registry returns an unregistered throwaway instrument.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return &Counter{}
	}
	if e := r.lookup(name, KindCounter); e != nil {
		return e.c
	}
	return r.create(name, help, KindCounter, func() *entry { return &entry{c: &Counter{}} }).c
}

// Gauge returns the gauge with the given name, creating it on first use.
// A nil registry returns an unregistered throwaway instrument.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	if e := r.lookup(name, KindGauge); e != nil {
		return e.g
	}
	return r.create(name, help, KindGauge, func() *entry { return &entry{g: &Gauge{}} }).g
}

// FloatGauge returns the float gauge with the given name, creating it on
// first use. A nil registry returns an unregistered throwaway instrument.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	if r == nil {
		return &FloatGauge{}
	}
	if e := r.lookup(name, KindFloatGauge); e != nil {
		return e.fg
	}
	return r.create(name, help, KindFloatGauge, func() *entry { return &entry{fg: &FloatGauge{}} }).fg
}

// Histogram returns the histogram with the given name, creating it with
// the given bucket bounds on first use (later calls reuse the existing
// layout). A nil registry returns an unregistered throwaway instrument.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	if e := r.lookup(name, KindHistogram); e != nil {
		return e.h
	}
	return r.create(name, help, KindHistogram, func() *entry { return &entry{h: NewHistogram(bounds)} }).h
}

// Snapshot returns every instrument's current state, sorted by name so
// expositions and tests are deterministic. A nil registry returns nil.
func (r *Registry) Snapshot() []Snapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.ents))
	for name := range r.ents {
		names = append(names, name)
	}
	ents := make([]*entry, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		ents = append(ents, r.ents[name])
	}
	r.mu.RUnlock()

	out := make([]Snapshot, len(names))
	for i, e := range ents {
		s := Snapshot{Name: names[i], Help: e.help, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			s.Value = float64(e.c.Value())
		case KindGauge:
			s.Value = float64(e.g.Value())
		case KindFloatGauge:
			s.Value = e.fg.Value()
		case KindHistogram:
			s.Bounds = e.h.Bounds()
			s.Cumulative = e.h.Cumulative()
			s.Count = s.Cumulative[len(s.Cumulative)-1]
			s.Sum = e.h.Sum()
		}
		out[i] = s
	}
	return out
}

// ExpBuckets returns n ascending bounds start, start*factor,
// start*factor^2, ... — the usual layout for latencies and sizes.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic(fmt.Sprintf("metrics: bad exponential bucket spec (start=%g factor=%g n=%d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
