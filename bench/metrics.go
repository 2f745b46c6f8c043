package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. The table below is the single
// source of the names and units the benchmark emits; bench_test.go checks
// it against BENCHMARK.json.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// exact marks deterministic counts: for a fixed seed they repeat
	// exactly, so -compare reports any difference as a behaviour change.
	exact bool
}

// endToEnd are the metrics a user of the system sees, reported with
// -trace 0 on every workload. An operation is one hbmsim-equivalent run
// on the sim-* workloads, one served job on serve-jobs, and one sweep
// pass on sweep-journal.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "op_s_p50", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "mem_peak_mb", unit: "MB", better: "lower"},
}

// perLayer are the metrics of single layers, reported with -trace 1 on
// every workload; a layer a workload does not drive directly reads 0.
var perLayer = []metricDef{
	{name: "workloads.build_s", unit: "s", better: "lower"},
	{name: "workloads.refs", unit: "count", better: "lower", exact: true},

	{name: "core.new_s", unit: "s", better: "lower"},
	{name: "core.step_s", unit: "s", better: "lower"},
	{name: "core.observed_step_s", unit: "s", better: "lower"},
	{name: "core.result_encode_s", unit: "s", better: "lower"},
	{name: "core.steps", unit: "count", better: "lower", exact: true},
	{name: "core.ticks", unit: "count", better: "lower", exact: true},
	{name: "core.ff_ticks", unit: "count", better: "higher", exact: true},
	{name: "core.ff_tick_frac", unit: "ratio", better: "higher", exact: true},
	{name: "core.ns_per_step", unit: "ns", better: "lower"},
	{name: "core.mrefs_per_s", unit: "Mrefs/s", better: "higher"},

	{name: "telemetry.observed_over_bare", unit: "ratio", better: "lower"},

	{name: "serve.submit_s_p50", unit: "s", better: "lower"},
	{name: "serve.wait_s_p50", unit: "s", better: "lower"},
	{name: "serve.fetch_s_p50", unit: "s", better: "lower"},
	{name: "serve.miss_s_p50", unit: "s", better: "lower"},
	{name: "serve.miss_s_p90", unit: "s", better: "lower"},
	{name: "serve.hit_s_p50", unit: "s", better: "lower"},
	{name: "serve.hit_s_p90", unit: "s", better: "lower"},
	{name: "serve.hit_floor_s", unit: "s", better: "lower"},
	{name: "serve.queue_wait_s_mean", unit: "s", better: "lower"},
	{name: "serve.run_s_mean", unit: "s", better: "lower"},
	{name: "serve.checkpoint_write_s_mean", unit: "s", better: "lower"},
	{name: "serve.checkpoint_writes", unit: "count", better: "lower"},
	{name: "serve.cache_hits", unit: "count", better: "higher", exact: true},
	{name: "serve.cache_misses", unit: "count", better: "lower", exact: true},
	{name: "serve.sse_stalls", unit: "count", better: "lower"},

	{name: "resultcache.entries", unit: "count", better: "lower"},

	{name: "sweep.row_s_mean", unit: "s", better: "lower"},
	{name: "sweep.worker_util", unit: "ratio", better: "higher"},
	{name: "sweep.journal_fsync_s_mean", unit: "s", better: "lower"},
	{name: "sweep.journal_kb", unit: "KiB", better: "lower", exact: true},

	{name: "membackend.reference.row_s_mean", unit: "s", better: "lower"},
	{name: "membackend.bandwidth.row_s_mean", unit: "s", better: "lower"},
	{name: "membackend.hybrid.row_s_mean", unit: "s", better: "lower"},
	{name: "membackend.reference.ticks", unit: "count", better: "lower", exact: true},
	{name: "membackend.bandwidth.ticks", unit: "count", better: "lower", exact: true},
	{name: "membackend.hybrid.ticks", unit: "count", better: "lower", exact: true},

	{name: "runtime.alloc_mb_per_op", unit: "MB", better: "lower"},
	{name: "runtime.gc_per_op", unit: "count", better: "lower"},
	{name: "runtime.max_rss_mb", unit: "MB", better: "lower"},
	{name: "storage.state_mb", unit: "MB", better: "lower"},

	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "trace.span_coverage", unit: "ratio", better: "higher"},

	{name: "host.ref_kernel_s", unit: "s", better: "lower"},
}

// lookupDef finds a metric's declaration in either table.
func lookupDef(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects a workload's metrics in report order.
type metricSet struct {
	list []metric
}

// set records name, taking its unit from the declaration tables; an
// undeclared name is a programming error.
func (m *metricSet) set(name string, value float64, n int) {
	d, ok := lookupDef(name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	for i := range m.list {
		if m.list[i].Name == name {
			m.list[i] = metric{Name: name, Value: value, Unit: d.unit, N: n}
			return
		}
	}
	m.list = append(m.list, metric{Name: name, Value: value, Unit: d.unit, N: n})
}

// complete puts the metrics in tab's order and adds every metric of tab
// not yet set as 0 with no samples: the layer exists but the workload
// does not drive it.
func (m *metricSet) complete(tab []metricDef) {
	out := make([]metric, 0, len(tab))
	for _, d := range tab {
		x := metric{Name: d.name, Unit: d.unit}
		for _, y := range m.list {
			if y.Name == d.name {
				x = y
			}
		}
		out = append(out, x)
	}
	m.list = out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the R-7 / numpy default), or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
