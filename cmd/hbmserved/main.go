// Command hbmserved is the long-running simulation job service: an HTTP
// front door over internal/serve that accepts sim, sweep, and experiment
// jobs as JSON, runs them on a bounded worker pool, and survives crashes.
//
// The job API is mounted beside the usual introspection endpoints
// (/metrics, /progress, /debug/pprof/), all on one address:
//
//	hbmserved -dir /var/lib/hbmsim -addr 127.0.0.1:8080
//
//	curl -s -X POST -d @job.json localhost:8080/jobs      # submit -> id
//	curl -s localhost:8080/jobs/1                          # poll
//	curl -sN localhost:8080/jobs/1/events                  # SSE progress
//	curl -s -X DELETE localhost:8080/jobs/1                # cancel
//
// SIGTERM/SIGINT starts a graceful drain: admission stops (503), running
// jobs get -drain-timeout to finish, and whatever is still running is
// interrupted WITHOUT a terminal record so the next start resumes it. A
// second signal — or SIGKILL — skips the drain; restart with the same
// -dir recovers every unfinished job from its journal and checkpoint and
// finishes it with results bit-identical to an uninterrupted run.
//
// See OPERATIONS.md for the full runbook and DESIGN.md §12 for the
// architecture.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"hbmsim/internal/durable"
	"hbmsim/internal/introspect"
	"hbmsim/internal/metrics"
	"hbmsim/internal/resultcache"
	"hbmsim/internal/serve"
	"hbmsim/internal/tracing"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address for the job API and introspection endpoints")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts and tests)")
		dir        = flag.String("dir", "", "state directory: job manifest, sweep journals, checkpoint snapshots (required)")
		workers    = flag.Int("workers", 2, "jobs run concurrently")
		queueCap   = flag.Int("queue", 64, "admission queue bound; submissions beyond it get 429 + Retry-After")
		jobWorkers = flag.Int("job-workers", 0, "per-job sweep parallelism (0 = GOMAXPROCS)")
		ckptEvery  = flag.Uint64("checkpoint-every", 4<<20, "sim-job snapshot cadence in ticks (0 selects the default, 4194304)")
		drainT     = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget before in-flight jobs are interrupted (they resume on restart)")
		logLevel   = flag.String("log-level", "info", "structured-log level: debug|info|warn|error")
		optGap     = flag.Bool("optgap", false, "track live optimality telemetry for sim jobs: competitive_ratio gauge on /metrics plus a per-job optgap snapshot in GET /jobs/{id} and the SSE stream")
		optGapWin  = flag.Uint64("optgap-window", 0, "optimality snapshot cadence in ticks (0 = 4096)")
		traceOn    = flag.Bool("trace", true, "trace job lifecycles as spans: /debug/trace, trace IDs in job views and logs, SIGQUIT flight-recorder dumps")
		traceRate  = flag.Float64("trace-sample", 1, "head-sampling probability for job traces in (0,1]")
		traceFile  = flag.String("trace-file", "", "also append finished spans to this file as OTLP JSON lines")
		cacheDir   = flag.String("cache", "", "content-addressed result cache directory: identical resubmitted jobs are answered from it without simulating (empty disables)")
		peers      = flag.String("peers", "", "comma-separated base URLs of peer hbmserved instances; multi-point sweep jobs are sharded across them")
		stealAfter = flag.Duration("steal-after", 30*time.Second, "straggler budget for sharded sweeps before a shard is raced onto an idle peer")
		shardRows  = flag.Int("shard-rows", 4, "sweep points per shard when sharding across -peers")
	)
	flag.Parse()
	if *dir == "" {
		if _, err := introspect.SetupLogging(os.Stderr, *logLevel); err != nil {
			fmt.Fprintf(os.Stderr, "hbmserved: %v\n", err)
			return 2
		}
		fmt.Fprintln(os.Stderr, "hbmserved: -dir is required (the state directory makes jobs durable)")
		return 2
	}

	// Tracing is on by default: the span ring is bounded memory, the
	// nil-tracer fast path means "off" costs nothing, and the flight
	// recorder is only as useful as what was recorded before the crash.
	var tracer *tracing.Tracer
	var flight *tracing.FlightRecorder
	if *traceOn {
		opts := tracing.Options{Sample: *traceRate}
		if *traceFile != "" {
			otlp, closeOTLP, err := tracing.OpenOTLPFile(*traceFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hbmserved: opening -trace-file: %v\n", err)
				return 2
			}
			defer closeOTLP()
			opts.Exporters = append(opts.Exporters, otlp)
		}
		tracer = tracing.New(opts)
	}
	flight = tracing.NewFlightRecorder(tracer, 512)
	if _, err := introspect.SetupTracedLogging(os.Stderr, *logLevel, flight); err != nil {
		fmt.Fprintf(os.Stderr, "hbmserved: %v\n", err)
		return 2
	}
	stopSIGQUIT := flight.InstallSIGQUIT(*dir, func(path string, err error) {
		if err != nil {
			slog.Error("flight-recorder dump failed", "err", err)
			return
		}
		slog.Info("flight recorder dumped", "path", path)
	})
	defer stopSIGQUIT()

	reg := metrics.NewRegistry()
	prog := &introspect.Progress{}
	mirror := newProgressMirror(prog)
	var cache *resultcache.Store
	if *cacheDir != "" {
		var err error
		if cache, err = resultcache.Open(*cacheDir); err != nil {
			slog.Error("opening result cache", "err", err)
			return 1
		}
		slog.Info("result cache enabled", "dir", *cacheDir)
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, strings.TrimRight(p, "/"))
		}
	}
	if len(peerList) > 0 {
		slog.Info("sweep sharding enabled", "peers", peerList,
			"steal_after", *stealAfter, "shard_rows", *shardRows)
	}
	svc, err := serve.Open(serve.Options{
		Dir:             *dir,
		Workers:         *workers,
		QueueCap:        *queueCap,
		JobWorkers:      *jobWorkers,
		CheckpointEvery: *ckptEvery,
		Metrics:         reg,
		OnUpdate:        mirror.onUpdate,
		TrackOptGap:     *optGap,
		OptGapWindow:    *optGapWin,
		Tracer:          tracer,
		FlightRecorder:  flight,
		Cache:           cache,
		Peers:           peerList,
		StealAfter:      *stealAfter,
		ShardRows:       *shardRows,
	})
	if err != nil {
		slog.Error("opening job service", "err", err)
		return 1
	}

	intro := introspect.New(reg, prog)
	intro.Handle("/jobs", svc.Handler())
	intro.Handle("/jobs/", svc.Handler())
	intro.EnableTrace(tracer)
	bound, err := intro.Start(*addr)
	if err != nil {
		slog.Error("starting HTTP server", "err", err)
		svc.Close()
		return 1
	}
	slog.Info("hbmserved listening", "addr", bound, "dir", *dir,
		"workers", *workers, "queue", *queueCap)
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, bound); err != nil {
			slog.Error("writing addr file", "err", err)
			svc.Close()
			return 1
		}
	}

	// First signal: graceful drain with the configured budget. Second
	// signal: give up on the drain immediately (jobs resume on restart).
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigCh
	slog.Info("shutdown signal; draining", "signal", sig, "timeout", *drainT)
	// Flip the readiness probe before admission actually stops: load
	// balancers stop routing to a draining instance while in-flight jobs
	// finish.
	intro.SetHealth(fmt.Sprintf("draining after %v", sig))

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainT)
	go func() {
		sig := <-sigCh
		slog.Warn("second signal; interrupting in-flight jobs", "signal", sig)
		cancel()
	}()
	err = svc.Drain(drainCtx)
	cancel()
	intro.Close()
	if cerr := svc.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		slog.Warn("shutdown finished with interrupted jobs; they resume on restart", "err", err)
		return 0 // interrupted-but-journaled is a clean outcome by design
	}
	slog.Info("drained cleanly")
	return 0
}

// writeAddrFile atomically publishes the bound address so scripts can
// wait for the file instead of polling the port.
func writeAddrFile(path, addr string) error {
	return durable.WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, addr+"\n")
		return err
	})
}

// progressMirror folds per-job updates into the aggregate /progress
// view: completed counts terminal jobs, total counts all jobs ever seen.
// It keeps its own census because serve.Options.OnUpdate runs under the
// service's lock and must not call back into it.
type progressMirror struct {
	mu     sync.Mutex
	prog   *introspect.Progress
	states map[uint64]serve.State
	start  time.Time
}

func newProgressMirror(p *introspect.Progress) *progressMirror {
	p.SetPhase("jobs", 0)
	return &progressMirror{prog: p, states: make(map[uint64]serve.State), start: time.Now()}
}

func (m *progressMirror) onUpdate(v serve.View) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.states[v.ID] = v.State
	var done, failed int
	for _, st := range m.states {
		if st.Terminal() {
			done++
		}
		if st == serve.StateFailed || st == serve.StateCancelled {
			failed++
		}
	}
	m.prog.Update(done, len(m.states), failed, time.Since(m.start), 0)
}
