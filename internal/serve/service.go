package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"hbmsim/internal/experiments"
	"hbmsim/internal/metrics"
	"hbmsim/internal/resultcache"
	"hbmsim/internal/sweep"
	"hbmsim/internal/trace"
	"hbmsim/internal/tracing"
)

// Service errors surfaced to submitters.
var (
	// ErrQueueFull reports a full admission queue; retry later (the HTTP
	// layer converts this to 429 + Retry-After).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDraining reports a service in graceful shutdown that no longer
	// admits jobs (HTTP 503).
	ErrDraining = errors.New("serve: draining, not accepting jobs")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("serve: no such job")
	// ErrTerminal reports a cancel of an already-finished job.
	ErrTerminal = errors.New("serve: job already finished")
)

// Cancellation causes; which one cancelled a job's context decides its
// terminal state (or, for shutdown, the absence of one).
var (
	errCancelled = errors.New("cancelled by request")
	errShutdown  = errors.New("service shutting down")
)

// Options configures a Service. Zero values select the documented
// defaults.
type Options struct {
	// Dir is the state directory: the job manifest plus per-job sweep
	// journals and checkpoint snapshots live here. Required.
	Dir string
	// Workers bounds how many jobs run concurrently (default 2). Each
	// sweep or experiment job additionally fans out over JobWorkers
	// goroutines internally.
	Workers int
	// QueueCap bounds the admission queue: submissions beyond this many
	// queued (not yet running) jobs are rejected with ErrQueueFull
	// (default 64). Crash recovery re-enqueues unfinished jobs without
	// counting against the bound — restarts must never drop work.
	QueueCap int
	// JobWorkers is the default per-job sweep parallelism (default
	// GOMAXPROCS). A job's Spec.Workers overrides it.
	JobWorkers int
	// CheckpointEvery is the default snapshot cadence for sim jobs in
	// ticks; 0 selects 4194304 (~0.2s of simulated work), so periodic
	// checkpoints are always on. A job's Spec.CheckpointEveryTicks
	// overrides it.
	CheckpointEvery uint64
	// Metrics, when non-nil, receives the serve_* instruments (queue
	// depth, running jobs, admission/outcome counters, job wall time)
	// plus the sweep_* instruments of every job's internal sweeps.
	Metrics *metrics.Registry
	// TrackOptGap attaches a live optimality tracker to every sim job:
	// the competitive_ratio gauge and optgap_* instruments land in
	// Metrics, and each job's View carries an OptGap snapshot (GET
	// /jobs/{id} and the SSE stream). The shared gauges are
	// last-writer-wins across concurrently running sim jobs; the per-job
	// view is the authoritative figure.
	TrackOptGap bool
	// OptGapWindow is the optimality snapshot cadence in ticks (0 selects
	// the tracker default, 4096).
	OptGapWindow uint64
	// OnUpdate, when non-nil, is called after every job state or
	// progress change with the job's fresh view. Calls may be concurrent
	// across jobs; keep it cheap.
	OnUpdate func(View)
	// Tracer, when non-nil, opens one span tree per job — admit,
	// queue-wait, run, checkpoint writes, journal fsyncs — and each job's
	// View carries its trace ID so /debug/trace can resolve it. A nil
	// Tracer makes every instrumented path a no-op.
	Tracer *tracing.Tracer
	// FlightRecorder, when non-nil, is dumped to Dir ("flightrec-*.json")
	// when a job panics, before the panic is converted into the job's
	// error — the post-mortem for the one failure mode that leaves no
	// journal trail.
	FlightRecorder *tracing.FlightRecorder
	// Cache, when non-nil, answers identical resubmissions from the
	// content-addressed result cache: after a job's fingerprint is
	// established, a cached payload under that fingerprint is returned
	// without simulating (the view carries cache_hit and the
	// serve_cache_hit_total counter moves); successful results are stored
	// back on completion.
	Cache *resultcache.Store
	// Peers are base URLs of other hbmserved instances. When non-empty,
	// multi-point sweep jobs are sharded across them through the HTTP job
	// API (internal/shard) instead of running only on this node; each
	// sub-job carries no_shard so peers never re-shard. Sim and experiment
	// jobs always run locally.
	Peers []string
	// StealAfter is the straggler budget for sharded sweeps: a shard
	// running longer than this on one peer may be raced onto an idle peer
	// (default 30s).
	StealAfter time.Duration
	// ShardRows is the sharded-sweep shard size in points (default 4).
	ShardRows int

	// testHookBeforeJob, when set, runs in the worker just before a job
	// executes — tests use it to hold a worker busy deterministically.
	testHookBeforeJob func(*job)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = runtime.GOMAXPROCS(0)
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 4 << 20
	}
	if o.StealAfter <= 0 {
		o.StealAfter = 30 * time.Second
	}
	if o.ShardRows <= 0 {
		o.ShardRows = 4
	}
	return o
}

// job is the service's internal job state. Mutable fields are guarded by
// the owning Service's mutex.
type job struct {
	id          uint64
	spec        *Spec
	fingerprint uint64
	hasFP       bool // a "start" record exists: fingerprint is meaningful (even when zero)
	state       State
	errMsg      string
	payload     *Payload
	recovered   bool
	cacheHit    bool // answered from the result cache, not simulated

	submitted time.Time
	started   time.Time
	finished  time.Time

	progress  sweep.Progress
	hasProg   bool
	optgap    *OptGapView
	cancel    context.CancelCauseFunc // non-nil while running
	cancelled bool                    // user cancel requested

	// linkTrace/linkSpan, when linkTrace is non-zero, continue a remote
	// trace (the submitter sent a sampled W3C traceparent header): the
	// job's root span is opened with StartLinked instead of StartRoot, so
	// a sharded sweep's sub-jobs join the coordinator's trace tree.
	linkTrace tracing.TraceID
	linkSpan  tracing.SpanID

	// Tracing state: traceCtx carries the job's root span for child spans;
	// enqueued timestamps the latest queue entry (admission or recovery)
	// for the queue-wait histogram. All are written before the job is
	// visible to workers and read-only afterwards.
	traceCtx context.Context
	span     tracing.Span // serve.job root, ends with the terminal state
	qspan    tracing.Span // serve.queue_wait, ends at worker pickup
	enqueued time.Time

	subs map[chan View]struct{}
}

// instruments bundles the serve_* metrics; zero-valued (from a nil
// registry) instruments are no-ops.
type instruments struct {
	submitted, rejected, recovered       *metrics.Counter
	started, finished, failed, cancelled *metrics.Counter
	cacheHit, cacheMiss                  *metrics.Counter
	queueDepth, running, workers         *metrics.Gauge
	jobSeconds                           *metrics.Histogram
	queueWait, checkpointWrite           *metrics.Histogram
}

func newInstruments(reg *metrics.Registry) instruments {
	return instruments{
		submitted: reg.Counter("serve_jobs_submitted_total", "jobs accepted into the queue"),
		rejected:  reg.Counter("serve_jobs_rejected_total", "submissions rejected with backpressure (queue full)"),
		recovered: reg.Counter("serve_jobs_recovered_total", "unfinished jobs re-enqueued by crash recovery"),
		started:   reg.Counter("serve_jobs_started_total", "jobs handed to a worker"),
		finished:  reg.Counter("serve_jobs_finished_total", "jobs reaching a terminal state"),
		failed:    reg.Counter("serve_jobs_failed_total", "jobs finishing in state failed"),
		cancelled: reg.Counter("serve_jobs_cancelled_total", "jobs finishing in state cancelled"),
		cacheHit: reg.Counter("serve_cache_hit_total",
			"jobs answered from the content-addressed result cache without simulating"),
		cacheMiss: reg.Counter("serve_cache_miss_total",
			"cache-enabled jobs whose fingerprint had no cached payload"),
		queueDepth: reg.Gauge("serve_queue_depth",
			"jobs admitted but not yet running (admission rejects past the queue bound)"),
		running: reg.Gauge("serve_jobs_running", "jobs currently executing on a worker"),
		workers: reg.Gauge("serve_workers", "size of the job worker pool"),
		jobSeconds: reg.Histogram("serve_job_seconds", "per-job wall time in seconds",
			metrics.ExpBuckets(0.001, 2, 24)),
		// 0.1ms .. ~14min: queue waits span "instant pickup" to "stuck
		// behind a paper-scale sweep".
		queueWait: reg.Histogram("serve_queue_wait_seconds",
			"seconds jobs spend admitted but not yet running",
			metrics.ExpBuckets(0.0001, 2, 24)),
		checkpointWrite: reg.Histogram("serve_checkpoint_write_seconds",
			"wall seconds per atomic sim checkpoint write (serialize + fsync + rename + directory fsync)",
			metrics.ExpBuckets(0.0001, 2, 20)),
	}
}

// Service is the job service. Construct with Open, which also performs
// crash recovery; stop with Drain (graceful) and/or Close.
type Service struct {
	opts Options
	man  *manifest
	ins  instruments

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[uint64]*job
	order    []uint64
	queue    []*job
	nextID   uint64
	runningN int
	draining bool
	closed   bool

	wg sync.WaitGroup
}

// Open opens (creating if needed) the state directory, replays the job
// manifest, re-enqueues every unfinished job — rewinding interrupted
// running jobs to queued so they resume from their journal or snapshot —
// and starts the worker pool.
func Open(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("serve: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	man, recs, err := openManifest(filepath.Join(opts.Dir, "jobs.jsonl"))
	if err != nil {
		return nil, err
	}
	s := &Service{
		opts:   opts,
		man:    man,
		ins:    newInstruments(opts.Metrics),
		jobs:   make(map[uint64]*job),
		nextID: 1,
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	s.replay(recs)
	s.ins.workers.Set(int64(opts.Workers))
	s.ins.queueDepth.Set(int64(len(s.queue)))
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// replay folds the manifest records into in-memory jobs and re-enqueues
// the unfinished ones in submission order.
func (s *Service) replay(recs []manifestRecord) {
	for _, rec := range recs {
		switch rec.Op {
		case "submit":
			if rec.Spec == nil {
				continue
			}
			j := &job{
				id:        rec.ID,
				spec:      rec.Spec,
				state:     StateQueued,
				submitted: time.Unix(rec.Unix, 0),
				subs:      make(map[chan View]struct{}),
			}
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
			if j.id >= s.nextID {
				s.nextID = j.id + 1
			}
		case "start":
			if j := s.jobs[rec.ID]; j != nil && rec.Fingerprint != nil {
				j.fingerprint = uint64(*rec.Fingerprint)
				j.hasFP = true
			}
		case "finish":
			if j := s.jobs[rec.ID]; j != nil {
				j.state = rec.State
				j.errMsg = rec.Error
				j.payload = rec.Result
				j.cacheHit = rec.CacheHit
				j.finished = time.Unix(rec.Unix, 0)
			}
		}
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state.Terminal() {
			continue
		}
		j.state = StateQueued
		j.recovered = true
		s.queue = append(s.queue, j)
		s.ins.recovered.Inc()
		s.startJobTrace(j, true)
		_, rsp := tracing.StartSpan(j.traceCtx, "serve.recover")
		rsp.SetAttrBool("resumable", j.hasFP)
		rsp.End()
		s.enterQueueTrace(j)
		slog.InfoContext(j.traceCtx, "recovered unfinished job", "job", j.id,
			"kind", j.spec.Kind, "resumable", j.hasFP)
	}
}

// startJobTrace opens the job's root span ("serve.job"). The root ends
// with the job's terminal state in finishLocked — or at shutdown rewind,
// since the restarted process opens a fresh root for the resumed run
// (marked recovered=true, so resumed lifecycles are visibly distinct).
func (s *Service) startJobTrace(j *job, recovered bool) {
	var ctx context.Context
	var sp tracing.Span
	if !j.linkTrace.IsZero() {
		ctx, sp = s.opts.Tracer.StartLinked(context.Background(), j.linkTrace, j.linkSpan, "serve.job")
	} else {
		ctx, sp = s.opts.Tracer.StartRoot(context.Background(), "serve.job")
	}
	sp.SetAttrUint("job", j.id)
	sp.SetAttr("kind", string(j.spec.Kind))
	if j.spec.Name != "" {
		sp.SetAttr("name", j.spec.Name)
	}
	if recovered {
		sp.SetAttrBool("recovered", true)
	}
	j.traceCtx, j.span = ctx, sp
}

// enterQueueTrace marks the job queued: the queue-wait span opens and
// the pickup clock (serve_queue_wait_seconds) starts.
func (s *Service) enterQueueTrace(j *job) {
	j.enqueued = time.Now()
	_, j.qspan = tracing.StartSpan(j.traceCtx, "serve.queue_wait")
}

// Submit validates and admits one job: the spec is journaled to the
// manifest (fsynced) before the ID is returned, so an acknowledged job
// survives any crash. Returns ErrQueueFull when the admission queue is
// at capacity and ErrDraining during graceful shutdown.
func (s *Service) Submit(spec Spec) (View, error) {
	return s.SubmitTraced(spec, "")
}

// SubmitTraced is Submit continuing a remote trace: traceparent, when a
// valid sampled W3C header value (the HTTP layer passes the submitter's
// header through), links the job's root span under the remote caller's
// span — how a sharded sweep's sub-jobs appear inside the coordinator's
// trace. An empty or malformed value degrades to a plain Submit.
func (s *Service) SubmitTraced(spec Spec, traceparent string) (View, error) {
	if err := spec.Validate(); err != nil {
		return View{}, err
	}
	var linkTrace tracing.TraceID
	var linkSpan tracing.SpanID
	if traceparent != "" {
		if tr, sp, flags, err := tracing.ParseTraceparent(traceparent); err == nil && flags&tracing.FlagSampled != 0 {
			linkTrace, linkSpan = tr, sp
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return View{}, ErrDraining
	}
	if len(s.queue) >= s.opts.QueueCap {
		s.ins.rejected.Inc()
		return View{}, ErrQueueFull
	}
	sp := spec // private copy
	j := &job{
		id:        s.nextID,
		spec:      &sp,
		state:     StateQueued,
		submitted: time.Now(),
		linkTrace: linkTrace,
		linkSpan:  linkSpan,
		subs:      make(map[chan View]struct{}),
	}
	s.startJobTrace(j, false)
	_, asp := tracing.StartSpan(j.traceCtx, "serve.admit")
	if err := s.man.append(manifestRecord{
		Op: "submit", ID: j.id, Spec: j.spec, Unix: j.submitted.Unix(),
	}); err != nil {
		asp.EndErr(err)
		j.span.EndErr(err)
		return View{}, err
	}
	asp.End()
	s.enterQueueTrace(j)
	s.nextID++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queue = append(s.queue, j)
	s.ins.submitted.Inc()
	s.ins.queueDepth.Set(int64(len(s.queue)))
	s.cond.Signal()
	v := s.viewLocked(j, false, false)
	s.notifyLocked(j)
	return v, nil
}

// Get returns one job's view, including its spec and (when finished) its
// result payload.
func (s *Service) Get(id uint64) (View, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return View{}, false
	}
	return s.viewLocked(j, true, true), true
}

// List returns every job's summary view (no specs or result payloads),
// ordered by ID.
func (s *Service) List() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]View, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.viewLocked(s.jobs[id], false, false))
	}
	sortViews(out)
	return out
}

// Cancel cancels a job: a queued job is finalised as cancelled without
// running, a running job's context is cancelled (it reaches the
// cancelled state when its worker unwinds). Cancelling a finished job
// returns ErrTerminal.
func (s *Service) Cancel(id uint64) (View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return View{}, ErrNotFound
	}
	switch {
	case j.state.Terminal():
		return s.viewLocked(j, false, false), ErrTerminal
	case j.state == StateQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.ins.queueDepth.Set(int64(len(s.queue)))
		j.qspan.End()
		j.span.SetAttr("cancel_cause", "cancel")
		s.finishLocked(j, StateCancelled, errCancelled.Error(), nil)
	default: // running
		j.cancelled = true
		if j.cancel != nil {
			j.cancel(errCancelled)
		}
	}
	return s.viewLocked(j, false, false), nil
}

// Stats is a point-in-time census of jobs by state.
type Stats struct {
	Queued, Running, Done, Failed, Cancelled int
}

// Total returns the number of jobs ever submitted (and still known).
func (st Stats) Total() int {
	return st.Queued + st.Running + st.Done + st.Failed + st.Cancelled
}

// Stats counts jobs by state.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st Stats
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}

// Drain performs graceful shutdown: admission stops immediately
// (Submit returns ErrDraining), queued and running jobs keep executing,
// and Drain returns when everything finished — or, if ctx expires
// first, after interrupting the in-flight jobs WITHOUT terminal
// manifest records, so the next Open resumes them from their journals
// and snapshots. Call Close afterwards to stop the workers and release
// the manifest.
func (s *Service) Drain(ctx context.Context) error {
	_, dsp := s.opts.Tracer.StartRoot(context.Background(), "serve.drain")
	s.mu.Lock()
	s.draining = true
	dsp.SetAttrInt("queued", int64(len(s.queue)))
	dsp.SetAttrInt("running", int64(s.runningN))
	s.cond.Broadcast()
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.mu.Lock()
		for (len(s.queue) > 0 || s.runningN > 0) && !s.closed {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(idle)
	}()
	select {
	case <-idle:
		dsp.End()
		return nil
	case <-ctx.Done():
		// Interrupt in-flight work; jobs observe errShutdown and unwind
		// without finish records. The waiter above completes once the
		// workers return their jobs.
		s.baseCancel(errShutdown)
		<-idle
		err := fmt.Errorf("serve: drain interrupted: %w", context.Cause(ctx))
		dsp.EndErr(err)
		return err
	}
}

// Close hard-stops the service: running jobs are interrupted without
// terminal records (they resume on the next Open), workers exit, and
// the manifest is closed. Safe after Drain.
func (s *Service) Close() error {
	s.baseCancel(errShutdown)
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	return s.man.Close()
}

// worker pops queued jobs until the service closes.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		j.state = StateRunning
		j.started = time.Now()
		j.qspan.End()
		if !j.enqueued.IsZero() {
			s.ins.queueWait.Observe(j.started.Sub(j.enqueued).Seconds())
		}
		j.progress, j.hasProg = sweep.Progress{}, false
		s.runningN++
		s.ins.queueDepth.Set(int64(len(s.queue)))
		s.ins.running.Set(int64(s.runningN))
		s.ins.started.Inc()
		s.notifyLocked(j)
		s.mu.Unlock()

		s.run(j)

		s.mu.Lock()
		s.runningN--
		s.ins.running.Set(int64(s.runningN))
		s.cond.Broadcast() // wake Drain's waiter
		s.mu.Unlock()
	}
}

// run executes one job end to end: context setup, panic isolation,
// dispatch by kind, and terminal-state accounting. Shutdown interrupts
// leave the job queued with no terminal record — that is the crash/drain
// resume path.
func (s *Service) run(j *job) {
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	var timeoutCancel context.CancelFunc
	if secs := j.spec.TimeoutSeconds; secs > 0 {
		ctx, timeoutCancel = context.WithTimeout(ctx, time.Duration(secs*float64(time.Second)))
	}
	s.mu.Lock()
	j.cancel = cancel
	if j.cancelled { // cancel arrived while the job sat queued->running
		cancel(errCancelled)
	}
	s.mu.Unlock()
	defer func() {
		cancel(nil)
		if timeoutCancel != nil {
			timeoutCancel()
		}
	}()

	// The cancellation context and the job's trace context are built
	// separately (cancellation descends from baseCtx, the span tree from
	// admission), so graft the root span on before opening the run span.
	runCtx, runSpan := tracing.StartSpan(tracing.ContextWithSpan(ctx, j.span), "serve.run")

	t0 := time.Now()
	payload, err := s.dispatch(runCtx, j)
	s.ins.jobSeconds.Observe(time.Since(t0).Seconds())
	runSpan.EndErr(err)

	cause := context.Cause(ctx)
	if err == nil && cause == nil {
		s.cacheStore(j, payload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	switch {
	case errors.Is(cause, errShutdown):
		// Interrupted by drain timeout or Close: rewind to queued with no
		// manifest record; the next Open re-enqueues and resumes the job.
		j.state = StateQueued
		j.started = time.Time{}
		j.span.SetAttr("cancel_cause", "shutdown")
		j.span.SetAttr("outcome", "interrupted")
		j.span.End()
		slog.InfoContext(j.traceCtx, "job interrupted by shutdown; will resume on restart", "job", j.id)
		s.notifyLocked(j)
	case errors.Is(cause, errCancelled):
		j.span.SetAttr("cancel_cause", "cancel")
		s.finishLocked(j, StateCancelled, errCancelled.Error(), payload)
	case errors.Is(cause, context.DeadlineExceeded):
		j.span.SetAttr("cancel_cause", "deadline")
		s.finishLocked(j, StateFailed,
			fmt.Sprintf("deadline exceeded after %gs", j.spec.TimeoutSeconds), payload)
	case err != nil:
		s.finishLocked(j, StateFailed, err.Error(), payload)
	default:
		s.finishLocked(j, StateDone, "", payload)
	}
}

// dispatch routes the job by kind, converting panics anywhere below into
// the job's error so one poisoned submission cannot take down the
// service.
func (s *Service) dispatch(ctx context.Context, j *job) (payload *Payload, err error) {
	defer func() {
		if p := recover(); p != nil {
			// Dump the flight recorder before the panic is flattened into the
			// job's error: open spans and recent logs from the moment of the
			// panic are exactly what the post-mortem needs.
			if fr := s.opts.FlightRecorder; fr != nil {
				if path, derr := fr.DumpToDir(s.opts.Dir, fmt.Sprintf("panic in job %d: %v", j.id, p)); derr == nil {
					slog.ErrorContext(ctx, "job panicked; flight recorder dumped", "job", j.id, "dump", path)
				} else {
					slog.ErrorContext(ctx, "job panicked; flight recorder dump failed", "job", j.id, "err", derr)
				}
			}
			payload, err = nil, fmt.Errorf("job panicked: %v\n%s", p, debug.Stack())
		}
	}()
	if hook := s.opts.testHookBeforeJob; hook != nil {
		hook(j)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch j.spec.Kind {
	case KindSim:
		return s.runSim(ctx, j)
	case KindSweep:
		return s.runSweep(ctx, j)
	case KindExperiment:
		return s.runExperiment(ctx, j)
	default:
		return nil, fmt.Errorf("unknown job kind %q", j.spec.Kind)
	}
}

// checkFingerprint verifies (or, on first start, records) the job's
// identity fingerprint. It guards the resume path: a recovered job whose
// spec no longer rebuilds the same workload/configs must not replay its
// journal or snapshot.
func (s *Service) checkFingerprint(j *job, wl *trace.Workload) error {
	fp, err := j.spec.Fingerprint(wl)
	if err != nil {
		return err
	}
	s.mu.Lock()
	prev, had := j.fingerprint, j.hasFP
	j.fingerprint, j.hasFP = fp, true
	s.mu.Unlock()
	j.span.SetAttr("fingerprint", fmt.Sprintf("%016x", fp))
	if had && prev != fp {
		return fmt.Errorf("fingerprint mismatch: job was journaled as %016x but its spec now rebuilds %016x; "+
			"refusing to resume (the workload generator or configuration changed across restarts)", prev, fp)
	}
	fpv := fpHex(fp)
	return s.man.append(manifestRecord{
		Op: "start", ID: j.id, Fingerprint: &fpv, Unix: time.Now().Unix(),
	})
}

// cacheGet consults the result cache under the job's fingerprint.
// Call after checkFingerprint succeeded; a hit marks the job cache_hit
// (surfaced in views, SSE, and the finish manifest record) and returns
// the decoded payload, skipping simulation entirely.
func (s *Service) cacheGet(j *job) (*Payload, bool) {
	if s.opts.Cache == nil {
		return nil, false
	}
	s.mu.Lock()
	fp, ok := j.fingerprint, j.hasFP
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	raw, hit, err := s.opts.Cache.Get(fp)
	if err != nil {
		slog.WarnContext(j.traceCtx, "result cache read failed; simulating", "job", j.id, "err", err)
	}
	var p Payload
	if hit && err == nil {
		if uerr := json.Unmarshal(raw, &p); uerr != nil {
			// Structurally valid entry, wrong shape: treat as a miss (the
			// store already checksummed the bytes, so this means a format
			// change, not corruption).
			slog.WarnContext(j.traceCtx, "cached payload undecodable; simulating", "job", j.id, "err", uerr)
			hit = false
		}
	}
	if !hit || err != nil {
		s.ins.cacheMiss.Inc()
		return nil, false
	}
	s.ins.cacheHit.Inc()
	s.mu.Lock()
	j.cacheHit = true
	s.mu.Unlock()
	j.span.SetAttrBool("cache_hit", true)
	slog.InfoContext(j.traceCtx, "job answered from result cache",
		"job", j.id, "fingerprint", fmt.Sprintf("%016x", fp))
	return &p, true
}

// cacheStore writes a successful payload back to the result cache.
// Failures only log — the job already has its answer.
func (s *Service) cacheStore(j *job, payload *Payload) {
	if s.opts.Cache == nil || payload == nil {
		return
	}
	s.mu.Lock()
	fp, ok, hit := j.fingerprint, j.hasFP, j.cacheHit
	s.mu.Unlock()
	if !ok || hit {
		return
	}
	raw, err := json.Marshal(payload)
	if err == nil {
		err = s.opts.Cache.Put(fp, raw)
	}
	if err != nil {
		slog.WarnContext(j.traceCtx, "result cache write failed", "job", j.id, "err", err)
	}
}

// jobFile returns the job's per-job state file path.
func (s *Service) jobFile(id uint64, suffix string) string {
	return filepath.Join(s.opts.Dir, fmt.Sprintf("job-%d%s", id, suffix))
}

// pushProgress records a live progress update and fans it out to
// subscribers and OnUpdate.
func (s *Service) pushProgress(j *job, p sweep.Progress) {
	s.pushSimProgress(j, p, nil)
}

// pushSimProgress is pushProgress plus the sim job's live optimality
// snapshot, recorded under the same lock so SSE subscribers see both
// move together. The view pointer is replaced wholesale, never mutated,
// so readers may keep it outside the lock.
func (s *Service) pushSimProgress(j *job, p sweep.Progress, og *OptGapView) {
	s.mu.Lock()
	j.progress, j.hasProg = p, true
	if og != nil {
		j.optgap = og
	}
	s.notifyLocked(j)
	s.mu.Unlock()
}

// runSweep executes a sweep job: every point through sweep.RunContext on
// a bounded pool, with completed rows journaled per job. Resume is
// always on — a fresh job's journal is empty, so the first run is
// unaffected, and a recovered job re-runs only unfinished points.
func (s *Service) runSweep(ctx context.Context, j *job) (*Payload, error) {
	wl, err := j.spec.Workload.Build()
	if err != nil {
		return nil, err
	}
	if err := s.checkFingerprint(j, wl); err != nil {
		return nil, err
	}
	if p, ok := s.cacheGet(j); ok {
		return p, nil
	}
	jobs := make([]sweep.Job, len(j.spec.Points))
	for i := range j.spec.Points {
		cfg, err := j.spec.Points[i].Config.Config()
		if err != nil {
			return nil, err
		}
		jobs[i] = sweep.Job{Name: j.spec.PointName(i), Config: cfg, Workload: wl}
	}
	if len(s.opts.Peers) > 0 && !j.spec.NoShard && len(jobs) > 1 {
		return s.runShardedSweep(ctx, j, jobs)
	}
	jnl, err := sweep.OpenJournal(s.jobFile(j.id, ".jnl"))
	if err != nil {
		return nil, err
	}
	defer jnl.Close()
	workers := j.spec.Workers
	if workers <= 0 {
		workers = s.opts.JobWorkers
	}
	rows := sweep.RunContext(ctx, jobs, sweep.Options{
		Workers:    workers,
		OnProgress: func(p sweep.Progress) { s.pushProgress(j, p) },
		Metrics:    s.opts.Metrics,
		Journal:    jnl,
		Resume:     true,
	})
	if cause := context.Cause(ctx); cause != nil {
		return nil, cause
	}
	payload := &Payload{Rows: make([]RowResult, len(rows))}
	for i, r := range rows {
		payload.Rows[i] = RowResult{Name: r.Job.Name, Result: r.Result}
		if r.Err != nil {
			payload.Rows[i].Error = r.Err.Error()
		}
	}
	return payload, nil
}

// runExperiment executes a registered experiment with the job's context,
// journal, and progress plumbed through experiments.Options.
func (s *Service) runExperiment(ctx context.Context, j *job) (*Payload, error) {
	if err := s.checkFingerprint(j, nil); err != nil {
		return nil, err
	}
	if p, ok := s.cacheGet(j); ok {
		return p, nil
	}
	o := experiments.Default()
	if j.spec.Full {
		o = experiments.Full()
	}
	if j.spec.Seed != 0 {
		o.Seed = j.spec.Seed
	}
	o.Workers = j.spec.Workers
	if o.Workers <= 0 {
		o.Workers = s.opts.JobWorkers
	}
	o.Ctx = ctx
	o.OnProgress = func(p sweep.Progress) { s.pushProgress(j, p) }
	o.Metrics = s.opts.Metrics
	jnl, err := sweep.OpenJournal(s.jobFile(j.id, ".jnl"))
	if err != nil {
		return nil, err
	}
	defer jnl.Close()
	o.Journal = jnl
	o.Resume = true

	out, err := experiments.Run(j.spec.Experiment, o)
	if cause := context.Cause(ctx); cause != nil {
		return nil, cause
	}
	if err != nil {
		return nil, err
	}
	res := &ExperimentResult{
		ID:         out.ID,
		Title:      out.Title,
		PaperClaim: out.PaperClaim,
		Headline:   out.Headline,
	}
	for _, t := range out.Tables {
		var sb strings.Builder
		if err := t.WriteCSV(&sb); err != nil {
			return nil, err
		}
		res.Tables = append(res.Tables, TableResult{Title: t.Title, CSV: sb.String()})
	}
	return &Payload{Experiment: res}, nil
}

// finishLocked records a terminal outcome: manifest first (fsynced),
// then in-memory state, metrics, and subscriber notification. Callers
// hold s.mu.
func (s *Service) finishLocked(j *job, state State, errMsg string, payload *Payload) {
	j.finished = time.Now()
	if err := s.man.append(manifestRecord{
		Op: "finish", ID: j.id, State: state, Error: errMsg,
		Result: payload, CacheHit: j.cacheHit, Unix: j.finished.Unix(),
	}); err != nil {
		// A manifest that stopped accepting writes means terminal states
		// no longer survive restarts; surface it on the job itself.
		state = StateFailed
		if errMsg == "" {
			errMsg = err.Error()
		} else {
			errMsg = fmt.Sprintf("%s (and recording the outcome failed: %v)", errMsg, err)
		}
		slog.ErrorContext(j.traceCtx, "recording job outcome failed", "job", j.id, "err", err)
	}
	j.state = state
	j.errMsg = errMsg
	j.payload = payload
	s.ins.finished.Inc()
	switch state {
	case StateFailed:
		s.ins.failed.Inc()
	case StateCancelled:
		s.ins.cancelled.Inc()
	}
	j.span.SetAttr("outcome", string(state))
	if errMsg != "" {
		j.span.EndErr(errors.New(errMsg))
	} else {
		j.span.End()
	}
	slog.InfoContext(j.traceCtx, "job finished", "job", j.id, "state", state,
		"elapsed", time.Since(j.started).Round(time.Millisecond))
	s.notifyLocked(j)
}

// viewLocked renders a job's view. Callers hold s.mu.
func (s *Service) viewLocked(j *job, withSpec, withResult bool) View {
	v := View{
		ID:        j.id,
		Name:      j.spec.Name,
		Kind:      j.spec.Kind,
		State:     j.state,
		Error:     j.errMsg,
		Recovered: j.recovered,
		CacheHit:  j.cacheHit,
	}
	if j.span.Sampled() {
		v.TraceID = j.span.Trace().String()
	}
	if !j.submitted.IsZero() {
		v.SubmittedUnix = j.submitted.Unix()
	}
	if !j.started.IsZero() {
		v.StartedUnix = j.started.Unix()
	}
	if !j.finished.IsZero() {
		v.FinishedUnix = j.finished.Unix()
	}
	if j.hasProg {
		v.Progress = &ProgressView{
			Completed:      j.progress.Completed,
			Total:          j.progress.Total,
			Failed:         j.progress.Failed,
			ElapsedSeconds: j.progress.Elapsed.Seconds(),
			ETASeconds:     j.progress.ETA.Seconds(),
		}
	}
	v.OptGap = j.optgap
	if withSpec {
		v.Spec = j.spec
	}
	if withResult {
		v.Result = j.payload
	}
	return v
}

// checkpointEvery returns the job's snapshot cadence.
func (s *Service) checkpointEvery(j *job) uint64 {
	if j.spec.CheckpointEveryTicks > 0 {
		return j.spec.CheckpointEveryTicks
	}
	return s.opts.CheckpointEvery
}
