// Package sweep runs batches of independent simulations in parallel — the
// machinery behind the paper's parameter sweep ("we varied the size of HBM,
// the source of the access traces, the number of cores, ... the number of
// channels to DRAM, and whether the DRAM queue is FIFO or Priority").
//
// Each Job is one (configuration, workload) point. RunContext, the one
// runner, fans the jobs out over a bounded worker pool and returns results
// in job order, so callers get deterministic tables regardless of
// scheduling. It also carries the live-introspection surface: context
// cancellation between jobs, a Progress callback with completion counts
// and an ETA, and runtime counters in a metrics.Registry. A worker panic
// is captured into that job's Row.Err instead of crashing the whole sweep.
// A caller that replicates a job over seeds lists each replica as a job
// of its own.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hbmsim/internal/core"
	"hbmsim/internal/metrics"
	"hbmsim/internal/trace"
	"hbmsim/internal/tracing"
)

// Job is one simulation point in a sweep.
type Job struct {
	// Name labels the point in reports, e.g. "fifo p=50 k=1000".
	Name string
	// Config is the simulator configuration to run.
	Config core.Config
	// Workload is the input; it is read-only and may be shared by many
	// jobs.
	Workload *trace.Workload
}

// Row is the outcome of one Job.
type Row struct {
	Job Job
	// Result is the simulation summary; non-nil even when Err is a
	// truncation (the partial result is preserved).
	Result *core.Result
	// Err reports a configuration error, a truncation, a worker panic, or
	// — for jobs never started because the context was cancelled — the
	// context's error.
	Err error
}

// Progress is one live-progress update, delivered after a job finishes.
// Updates are serialized (never concurrent) and Completed increases by one
// per call — except that a resumed sweep's first update folds all
// journal-restored rows in at once — reaching Total on the final update
// of an uncancelled sweep. A
// cancelled sweep delivers one terminal update that folds every
// never-dispatched job into Completed and Failed, so consumers waiting
// for Completed == Total (the /progress endpoint, progress bars) always
// see the sweep finish.
type Progress struct {
	// Completed counts finished jobs (including failed and, on a
	// cancelled sweep's terminal update, never-dispatched ones); Total is
	// len(jobs).
	Completed, Total int
	// Failed counts finished jobs whose Row.Err is non-nil.
	Failed int
	// Elapsed is the wall time since the sweep started.
	Elapsed time.Duration
	// ETA linearly extrapolates the remaining wall time from the average
	// per-job rate so far (0 when the sweep is done).
	ETA time.Duration
}

// ETA extrapolates the wall time left once completed of total items took
// elapsed: the mean time per item, kept in floating point so a rate under
// a nanosecond per item is not rounded away, times the items left. It is
// 0 before the first item completes and once every item has.
func ETA(completed, total int, elapsed time.Duration) time.Duration {
	if completed <= 0 || completed >= total {
		return 0
	}
	return time.Duration(float64(elapsed) / float64(completed) * float64(total-completed))
}

// Options configures RunContext beyond the job list.
type Options struct {
	// Workers bounds pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// OnProgress, when non-nil, receives one serialized Progress update
	// after each job finishes. Keep it cheap: workers block on it.
	OnProgress func(Progress)
	// Metrics, when non-nil, receives live sweep counters:
	// sweep_jobs_started_total / _finished_total / _failed_total, the
	// sweep_job_seconds wall-time histogram (its _sum is total busy
	// seconds, so busy/(workers*elapsed) is worker utilization), and the
	// sweep_workers / sweep_workers_busy gauges.
	Metrics *metrics.Registry
	// Journal, when non-nil, appends every successfully completed row to
	// the crash-tolerant journal as soon as it finishes.
	Journal *Journal
	// Resume, when set (with a Journal), restores journaled rows instead
	// of re-running their jobs: a restarted sweep executes only the jobs
	// the previous run did not finish. Restored rows are folded into the
	// first Progress update's Completed count.
	Resume bool
}

// instruments bundles the registry handles one sweep updates; the zero
// value (from a nil registry) consists of no-op instruments.
type instruments struct {
	started, finished, failed *metrics.Counter
	workers, busy             *metrics.Gauge
	jobSeconds                *metrics.Histogram
}

func newInstruments(reg *metrics.Registry) instruments {
	return instruments{
		started:  reg.Counter("sweep_jobs_started_total", "sweep jobs handed to a worker"),
		finished: reg.Counter("sweep_jobs_finished_total", "sweep jobs completed (including failures)"),
		failed:   reg.Counter("sweep_jobs_failed_total", "sweep jobs finished with a non-nil error"),
		workers:  reg.Gauge("sweep_workers", "size of the sweep worker pool"),
		busy:     reg.Gauge("sweep_workers_busy", "workers currently running a job"),
		// 1ms .. ~8.7min in doubling buckets covers laptop-scale points and
		// paper-scale ones.
		jobSeconds: reg.Histogram("sweep_job_seconds", "per-job wall time in seconds",
			metrics.ExpBuckets(0.001, 2, 20)),
	}
}

// RunContext executes the jobs on a bounded worker pool and returns one
// Row per Job, in job order. Cancelling ctx stops dispatching: jobs
// already picked up run to completion, and every job never started gets a
// Row whose Err is the context's error (its Result stays nil). A nil ctx
// is treated as context.Background().
func RunContext(ctx context.Context, jobs []Job, opts Options) []Row {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	rows := make([]Row, len(jobs))
	if len(jobs) == 0 {
		return rows
	}

	// With a resumable journal, jobs finished by a previous run are
	// restored up front and only the remainder is dispatched.
	pending := make([]int, 0, len(jobs))
	for i := range jobs {
		if opts.Resume && opts.Journal != nil {
			if res, ok := opts.Journal.Lookup(jobs[i]); ok {
				rows[i] = Row{Job: jobs[i], Result: res}
				// A journal-restored row gets its own (instant) span so a
				// resumed sweep's trace shows visibly which rows were
				// recovered rather than recomputed.
				_, rsp := tracing.StartSpan(ctx, "sweep.row.resume")
				rsp.SetAttr("row", jobs[i].Name)
				rsp.End()
				continue
			}
		}
		pending = append(pending, i)
	}
	restored := len(jobs) - len(pending)
	if workers > len(pending) {
		workers = len(pending)
	}

	ins := newInstruments(opts.Metrics)
	ins.workers.Set(int64(workers))

	start := time.Now()
	var (
		progressMu    sync.Mutex
		done, failedN int
	)
	done = restored
	if restored > 0 && opts.OnProgress != nil {
		opts.OnProgress(Progress{
			Completed: done,
			Total:     len(jobs),
			Elapsed:   time.Since(start),
		})
	}
	if len(pending) == 0 {
		return rows
	}
	report := func(jobErr error) {
		progressMu.Lock()
		defer progressMu.Unlock()
		done++
		if jobErr != nil {
			failedN++
		}
		if opts.OnProgress == nil {
			return
		}
		elapsed := time.Since(start)
		opts.OnProgress(Progress{
			Completed: done,
			Total:     len(jobs),
			Failed:    failedN,
			Elapsed:   elapsed,
			ETA:       ETA(done, len(jobs), elapsed),
		})
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ins.started.Inc()
				ins.busy.Add(1)
				t0 := time.Now()
				rowCtx, rowSpan := tracing.StartSpan(ctx, "sweep.row.run")
				rowSpan.SetAttr("row", jobs[i].Name)
				rows[i] = runJob(jobs[i])
				if opts.Journal != nil && rows[i].Err == nil && rows[i].Result != nil {
					_, jsp := tracing.StartSpan(rowCtx, "sweep.journal_fsync")
					err := opts.Journal.Record(jobs[i], rows[i].Result)
					jsp.EndErr(err)
					if err != nil {
						// Surface a broken journal rather than silently losing
						// crash tolerance.
						rows[i].Err = err
					}
				}
				rowSpan.EndErr(rows[i].Err)
				ins.jobSeconds.Observe(time.Since(t0).Seconds())
				ins.busy.Add(-1)
				ins.finished.Inc()
				if rows[i].Err != nil {
					ins.failed.Inc()
				}
				report(rows[i].Err)
			}
		}()
	}
	undispatched := 0
dispatch:
	for pi, i := range pending {
		select {
		case next <- i:
			undispatched = pi + 1
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	// Jobs are dispatched in order, so everything at pending[undispatched]
	// and beyond never reached a worker; mark them cancelled rather than
	// leaving silent zero Rows, and emit one terminal progress update
	// covering them — without it, OnProgress consumers would wait forever
	// for Completed to reach Total.
	if err := context.Cause(ctx); err != nil && undispatched < len(pending) {
		for _, i := range pending[undispatched:] {
			rows[i] = Row{Job: jobs[i], Err: fmt.Errorf("sweep: job %q not run: %w", jobs[i].Name, err)}
		}
		progressMu.Lock()
		done += len(pending) - undispatched
		failedN += len(pending) - undispatched
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{
				Completed: done,
				Total:     len(jobs),
				Failed:    failedN,
				Elapsed:   time.Since(start),
			})
		}
		progressMu.Unlock()
	}
	return rows
}

// runJob executes one job, converting a panic anywhere under core.Run into
// the row's error so one poisoned configuration cannot take down the other
// len(jobs)-1 points of a long sweep.
func runJob(job Job) (row Row) {
	row.Job = job
	defer func() {
		if p := recover(); p != nil {
			row.Result = nil
			row.Err = fmt.Errorf("sweep: job %q panicked: %v\n%s", job.Name, p, debug.Stack())
		}
	}()
	row.Result, row.Err = core.Run(job.Config, job.Workload.Raw())
	return row
}

// FirstError returns the first non-nil error among the rows, wrapped with
// its job name, or nil.
func FirstError(rows []Row) error {
	for _, r := range rows {
		if r.Err != nil {
			return fmt.Errorf("sweep: job %q: %w", r.Job.Name, r.Err)
		}
	}
	return nil
}
