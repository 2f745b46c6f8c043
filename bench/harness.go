package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hbmsim/internal/serve"
	"hbmsim/internal/trace"
	"hbmsim/internal/tracing"
)

// A run sets its workload up at least minSetups times, and keeps
// repeating cheap set-ups until setupBudget has passed or maxSetups were
// done; setup_s is the median, so one slow build or file-system sync
// does not move it.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// options are one child run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool   // -trace 1: alternate traced and untraced operations, report per-layer metrics
	traceDir string // where -trace 1 writes <workload>.perfetto.json; empty writes nothing
	workdir  string // parent of the run's scratch directory
	smoke    bool   // tiny shapes, for the package test
}

// workload is one benchmark workload. A run calls setup several times
// (teardown between them), then run with the measurement deadline, then
// check and, in traced mode, layers; teardown releases everything.
type workload interface {
	setup(h *harness) error
	teardown(h *harness)
	run(h *harness, deadline time.Time)
	check(h *harness)
	layers(h *harness, m *metricSet)
}

// sample is one completed operation.
type sample struct {
	secs   float64
	memMB  float64 // peak runtime memory since the previous operation ended
	traced bool
	kind   string // serve-jobs only: "spgemm", "densemm" or "hit"
}

// harness is the shared state of one workload run: the samples, the
// correctness ledger, the tracer and the scratch directory.
type harness struct {
	opts   options
	dir    string
	tracer *tracing.Tracer // nil unless opts.traced
	spans  *spanLog
	mem    *memSampler // set for the measured phase
	ref    refSeries   // reference kernel runs between operations

	mu        sync.Mutex
	samples   []sample
	attempted int
	failed    int
	problems  []string
	digests   map[string]string
}

// traceFor returns the tracer an operation runs under: in traced mode,
// odd operations are traced and even ones are not, so the two halves
// share the same host conditions and their difference is the tracing
// overhead. Returns nil (tracing off) otherwise.
func (h *harness) traceFor(i int) *tracing.Tracer {
	if i%2 == 1 {
		return h.tracer
	}
	return nil
}

// minOps is the fewest operations a run measures, whatever the deadline:
// two, so traced mode always has a traced and an untraced one.
const minOps = 2

// loop runs op sequentially until the deadline has passed and at least
// minOps operations completed, recording one sample per operation. With
// fresh set, each operation starts from a collected heap, as it would in
// a process of its own; its memory peak then no longer depends on where
// the previous operation's garbage left the collector.
func (h *harness) loop(deadline time.Time, fresh bool, op func(i int, tr *tracing.Tracer) error) {
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		if fresh {
			runtime.GC()
			h.mem.reset()
		}
		tr := h.traceFor(i)
		t0 := time.Now()
		err := op(i, tr)
		h.record(sample{secs: time.Since(t0).Seconds(), traced: tr != nil}, err)
	}
}

// record counts one attempted operation, which has just ended; a failed
// one adds no sample. It then runs the reference kernel until the kernel
// has had its share of the operations' time. Operations run one at a
// time, so the kernel never overlaps one.
func (h *harness) record(s sample, err error) {
	s.memMB = h.mem.take()
	h.mu.Lock()
	h.attempted++
	if err != nil {
		h.failed++
		h.noteLocked(err.Error())
	} else {
		h.samples = append(h.samples, s)
	}
	h.mu.Unlock()
	h.ref.after(s.secs)
}

// fail records a correctness failure found after an operation was
// counted (a post-phase check): the operation counts as failed.
func (h *harness) fail(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failed++
	h.noteLocked(fmt.Sprintf(format, args...))
}

func (h *harness) noteLocked(msg string) {
	const keep = 20
	if len(h.problems) < keep {
		h.problems = append(h.problems, msg)
	}
}

// checkDigest pins the FNV-1a digest of enc under key: the first call
// records it, later calls must match. It reports whether enc matched.
func (h *harness) checkDigest(key string, enc []byte) bool {
	d := digest(enc)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.digests == nil {
		h.digests = map[string]string{}
	}
	prev, ok := h.digests[key]
	if !ok {
		h.digests[key] = d
		return true
	}
	return prev == d
}

func digest(b []byte) string {
	f := fnv.New64a()
	f.Write(b)
	return fmt.Sprintf("%016x", f.Sum64())
}

// latencies returns the samples' seconds, filtered by traced state and
// (when kind is non-empty) by kind.
func (h *harness) latencies(traced bool, kind string) []float64 {
	var out []float64
	for _, s := range h.samples {
		if s.traced == traced && (kind == "" || s.kind == kind) {
			out = append(out, s.secs)
		}
	}
	return out
}

// childResult is what a child process reports to its parent.
type childResult struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Digests   map[string]string `json:"digests"`
	Metrics   []metric          `json:"metrics"`
	SelfTimes []selfTime        `json:"self_times,omitempty"`
	// Median reference kernel times, between set-ups and between
	// operations: an end-to-end time times its median over refNominal
	// gives the wall time measured.
	SetupRefS float64 `json:"setup_ref_kernel_s"`
	RefS      float64 `json:"ref_kernel_s"`
}

// runWorkload executes one workload in this process and returns its
// result. An error means the run could not be carried out at all.
func runWorkload(opts options) (*childResult, error) {
	w, err := newWorkload(opts)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.workdir, opts.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	kernel := newRefKernel()
	h := &harness{opts: opts, dir: dir, ref: refSeries{k: kernel}}
	if opts.traced {
		h.spans = &spanLog{}
		h.tracer = tracing.New(tracing.Options{RingSize: 1, Exporters: []tracing.Exporter{h.spans}})
	}

	// The reference kernel runs between set-ups too, and scales setup_s
	// as its runs between operations scale the other times.
	setupRef := refSeries{k: kernel}
	var setups []float64
	for first := time.Now(); len(setups) < minSetups ||
		(len(setups) < maxSetups && time.Since(first) < setupBudget); {
		if len(setups) > 0 {
			w.teardown(h)
		}
		t0 := time.Now()
		if err := w.setup(h); err != nil {
			w.teardown(h)
			return nil, fmt.Errorf("%s: setup: %w", opts.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupRef.after(setups[len(setups)-1])
	}
	defer w.teardown(h)
	setupRefS := setupRef.median()

	// Collect the set-up's garbage, so the measured phase starts from the
	// heap it needs rather than the set-up's heap goal.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	length := time.Duration(opts.seconds * float64(time.Second))
	h.mem = startMemSampler()
	w.run(h, time.Now().Add(length))
	refS := h.ref.median()
	h.mem.close()
	runtime.ReadMemStats(&ms1)
	w.check(h)

	res := &childResult{
		Workload:  opts.workload,
		Correct:   h.failed == 0 && h.attempted > 0,
		Attempted: h.attempted,
		Failed:    min(h.failed, h.attempted), // post-phase checks fail operations already counted
		Problems:  h.problems,
		Digests:   h.digests,
		SetupRefS: setupRefS,
		RefS:      refS,
	}
	m := &metricSet{}
	if !opts.traced {
		// Whole-run medians, scaled to the reference host speed (host.go).
		setupScale, scale := refNominal/setupRefS, refNominal/refS
		m.set("setup_s", quantile(setups, 0.5)*setupScale, len(setups))
		lat := h.latencies(false, "")
		peaks := make([]float64, len(h.samples))
		for i, s := range h.samples {
			peaks[i] = s.memMB
		}
		m.set("op_s_p50", quantile(lat, 0.5)*scale, len(lat))
		m.set("ops_per_s", ratio(float64(len(lat)), h.ref.timed*scale), len(lat))
		m.set("mem_peak_mb", quantile(peaks, 0.5), len(peaks))
		res.Metrics = m.list
		return res, nil
	}

	plain, traced := h.latencies(false, ""), h.latencies(true, "")
	ops := len(plain) + len(traced)
	m.set("runtime.alloc_mb_per_op", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), float64(ops)), ops)
	m.set("runtime.gc_per_op", ratio(float64(ms1.NumGC-ms0.NumGC), float64(ops)), ops)
	m.set("storage.state_mb", float64(dirBytes(dir))/(1<<20), 1)
	m.set("trace.overhead_frac", ratio(quantile(traced, 0.5), quantile(plain, 0.5))-1, ops)
	recs := h.spans.snapshot()
	m.set("trace.span_coverage", spanCoverage(recs), len(recs))
	m.set("host.ref_kernel_s", refS, len(h.ref.times))
	w.layers(h, m)
	m.complete(perLayer) // runtime.max_rss_mb is the parent's to fill in
	res.Metrics = m.list
	res.SelfTimes = selfTimes(h.spans.snapshot())
	if opts.traceDir != "" {
		if err := writePerfetto(filepath.Join(opts.traceDir, opts.workload+".perfetto.json"), h.spans.snapshot()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // a file removed mid-walk is simply not counted
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// spanLog is a tracing.Exporter that keeps every finished span.
type spanLog struct {
	mu   sync.Mutex
	recs []tracing.SpanRecord
}

// ExportSpan implements tracing.Exporter. Records are immutable after
// End, so keeping the value is safe.
func (l *spanLog) ExportSpan(r *tracing.SpanRecord) {
	l.mu.Lock()
	l.recs = append(l.recs, *r)
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []tracing.SpanRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]tracing.SpanRecord(nil), l.recs...)
}

// durations returns the seconds of every span named name that satisfies
// keep (nil keeps all).
func durations(recs []tracing.SpanRecord, name string, keep func(*tracing.SpanRecord) bool) []float64 {
	var out []float64
	for i := range recs {
		r := &recs[i]
		if r.Name == name && (keep == nil || keep(r)) {
			out = append(out, r.Duration.Seconds())
		}
	}
	return out
}

// selfTime is one row of the self-time table: a span name's total
// duration minus the part of it its child spans cover.
type selfTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Self  float64 `json:"self_s"`
	Total float64 `json:"total_s"`
}

type interval struct{ lo, hi time.Time }

// childCoverage returns, per span ID, how much of the span's interval
// its direct children cover (overlapping children are merged).
func childCoverage(recs []tracing.SpanRecord) map[tracing.SpanID]time.Duration {
	byID := make(map[tracing.SpanID]*tracing.SpanRecord, len(recs))
	for i := range recs {
		byID[recs[i].ID] = &recs[i]
	}
	kids := map[tracing.SpanID][]interval{}
	for i := range recs {
		r := &recs[i]
		p, ok := byID[r.Parent]
		if r.Parent.IsZero() || !ok || p.Trace != r.Trace {
			continue
		}
		lo, hi := r.Start, r.Start.Add(r.Duration)
		plo, phi := p.Start, p.Start.Add(p.Duration)
		if lo.Before(plo) {
			lo = plo
		}
		if hi.After(phi) {
			hi = phi
		}
		if hi.After(lo) {
			kids[p.ID] = append(kids[p.ID], interval{lo, hi})
		}
	}
	out := make(map[tracing.SpanID]time.Duration, len(kids))
	for id, iv := range kids {
		sort.Slice(iv, func(a, b int) bool { return iv[a].lo.Before(iv[b].lo) })
		var covered time.Duration
		cur := iv[0]
		for _, x := range iv[1:] {
			if x.lo.After(cur.hi) {
				covered += cur.hi.Sub(cur.lo)
				cur = x
			} else if x.hi.After(cur.hi) {
				cur.hi = x.hi
			}
		}
		covered += cur.hi.Sub(cur.lo)
		out[id] = covered
	}
	return out
}

// selfTimes aggregates self time per span name, largest first.
func selfTimes(recs []tracing.SpanRecord) []selfTime {
	cov := childCoverage(recs)
	rows := map[string]*selfTime{}
	for i := range recs {
		r := &recs[i]
		st := rows[r.Name]
		if st == nil {
			st = &selfTime{Name: r.Name}
			rows[r.Name] = st
		}
		st.Count++
		st.Total += r.Duration.Seconds()
		st.Self += (r.Duration - cov[r.ID]).Seconds()
	}
	out := make([]selfTime, 0, len(rows))
	for _, st := range rows {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Self > out[b].Self })
	return out
}

// opRoots are the root spans that wrap one operation each.
var opRoots = map[string]bool{"bench.sim_run": true, "bench.job": true, "bench.sweep_pass": true}

// spanCoverage is the share of the operations' traced wall time that
// their child spans account for: one minus the roots' self time over the
// roots' duration.
func spanCoverage(recs []tracing.SpanRecord) float64 {
	cov := childCoverage(recs)
	var total, covered time.Duration
	for i := range recs {
		if opRoots[recs[i].Name] {
			total += recs[i].Duration
			covered += cov[recs[i].ID]
		}
	}
	return ratio(covered.Seconds(), total.Seconds())
}

func writePerfetto(path string, recs []tracing.SpanRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracing.WritePerfetto(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildWorkload generates spec's workload inside a bench.workload_build
// span that records the reference count.
func buildWorkload(ctx context.Context, spec serve.WorkloadSpec) (*trace.Workload, error) {
	_, sp := tracing.StartSpan(ctx, "bench.workload_build")
	wl, err := spec.Build()
	if err == nil {
		sp.SetAttrUint("refs", wl.TotalRefs())
	}
	sp.EndErr(err)
	return wl, err
}
