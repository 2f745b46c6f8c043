// Command hbmsim runs one HBM+DRAM-model simulation and prints its
// metrics. The workload comes from a trace file (see cmd/tracegen) or a
// built-in generator.
//
// Usage:
//
//	hbmsim -trace sort.hbmt -k 1000 -q 1 -arbiter priority -permuter dynamic -T 10000
//	hbmsim -gen spgemm -cores 64 -k 1000 -arbiter fifo
//	hbmsim -gen adversarial -cores 32 -arbiter priority -permuter dynamic -T 2560 \
//	    -perfetto out.json -timeline out.csv -heatmap 10 -watchdog 500
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"hbmsim"

	"hbmsim/internal/core"
	"hbmsim/internal/introspect"
	"hbmsim/internal/report"
	"hbmsim/internal/tracing"
	"hbmsim/internal/workloads"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file produced by tracegen (binary or .txt)")
		gen       = flag.String("gen", "", "built-in workload: "+strings.Join(workloads.Names(), "|"))
		cores     = flag.Int("cores", 16, "cores for -gen workloads")
		size      = flag.Int("size", 8000, "workload size for -gen (sort N, matrix dim, refs)")
		pageBytes = flag.Int("page", 64, "page size in bytes for instrumented -gen workloads")
		k         = flag.Int("k", 1000, "HBM capacity in page slots")
		q         = flag.Int("q", 1, "far channels between HBM and DRAM")
		arb       = flag.String("arbiter", "fifo", "far-channel arbitration: fifo|priority|random")
		repl      = flag.String("replacement", "lru", "HBM replacement: lru|fifo|clock|random|belady")
		mapping   = flag.String("mapping", "associative", "HBM organisation: associative|direct")
		perm      = flag.String("permuter", "static", "priority permuter: static|dynamic|cycle|cycle-reverse|interleave")
		remap     = flag.Uint64("T", 0, "remap period in ticks (0 = never)")
		backend   = flag.String("backend", "reference", "far-memory model: reference|bandwidth|hybrid")
		backendP  = flag.String("backend-params", "", "backend parameters as key=value,... (e.g. bytes_per_tick=8,latency_ticks=9)")
		seed      = flag.Int64("seed", 1, "random seed")
		percore   = flag.Bool("percore", false, "print per-core summaries")
		asJSON    = flag.Bool("json", false, "emit the full result as JSON instead of a table")
		eventsCSV = flag.String("events", "", "stream every event as buffered CSV to this file")
		timeline  = flag.String("timeline", "", "write windowed time-series metrics as CSV to this file")
		window    = flag.Uint64("window", 0, "timeline window width in ticks (0 = T when set, else 1024)")
		perfetto  = flag.String("perfetto", "", "write a Chrome trace-event JSON for ui.perfetto.dev to this file")
		heatTop   = flag.Int("heatmap", 0, "print the N hottest pages by fetch count")
		watchGap  = flag.Uint64("watchdog", 0, "flag starvation episodes with serve gaps above this many ticks")
		optGap    = flag.Bool("optgap", false, "track live optimality telemetry: streaming makespan lower bound, miss-ratio curve, competitive_ratio gauge (scrape with -http)")
		optGapWin = flag.Uint64("optgap-window", 0, "optimality snapshot cadence in ticks (0 = 4096)")
		optGapCSV = flag.String("optgap-csv", "", "write the windowed optimality series as CSV to this file (implies -optgap)")
		httpAddr  = flag.String("http", "", "serve /metrics, /progress, /debug/vars, /debug/pprof on this address while the run executes (empty = no listener)")
		logLevel  = flag.String("log-level", "info", "structured-log level: debug|info|warn|error")
		ckptEvery = flag.Uint64("checkpoint-every", 0, "write a resumable snapshot every N ticks (0 = never); requires -checkpoint-file")
		ckptFile  = flag.String("checkpoint-file", "", "snapshot path for -checkpoint-every (written atomically)")
		resume    = flag.String("resume", "", "resume from a snapshot written by -checkpoint-every; the workload and config flags must match the checkpointed run")
		traceOn   = flag.Bool("tracing", false, "trace the run as spans (root span plus checkpoint save/load children); view on -http /debug/trace or export with -trace-file")
		traceRate = flag.Float64("trace-sample", 1, "head-sampling probability for -tracing in (0,1]")
		traceFile = flag.String("trace-file", "", "append finished spans to this file as OTLP JSON lines (implies -tracing)")
	)
	flag.Parse()

	if *ckptEvery > 0 && *ckptFile == "" {
		fail(errors.New("-checkpoint-every requires -checkpoint-file"))
	}
	if *ckptEvery == 0 && *ckptFile != "" {
		fail(errors.New("-checkpoint-file requires -checkpoint-every"))
	}

	if _, err := introspect.SetupLogging(os.Stderr, *logLevel); err != nil {
		// A bad flag value is a usage error: exit 2 like flag.Parse does,
		// so scripts can tell "you called me wrong" from "the run failed".
		fmt.Fprintf(os.Stderr, "hbmsim: %v\n", err)
		os.Exit(2)
	}

	// Opt-in span tracing. -trace names the input trace file on this CLI,
	// so the switch is spelled -tracing; -trace-file alone also enables it
	// (an export target is an unambiguous request to trace).
	var tracer *tracing.Tracer
	if *traceOn || *traceFile != "" {
		topts := tracing.Options{Sample: *traceRate}
		if *traceFile != "" {
			otlp, closeOTLP, err := tracing.OpenOTLPFile(*traceFile)
			if err != nil {
				fail(err)
			}
			defer closeOTLP()
			topts.Exporters = append(topts.Exporters, otlp)
		}
		tracer = tracing.New(topts)
	}

	wl, err := loadWorkload(*tracePath, *gen, *cores, *size, *pageBytes, *seed)
	if err != nil {
		fail(err)
	}

	// The run's root span: checkpoint saves/loads inside the tick loop
	// become children, and the deferred End flushes it to -trace-file
	// before the OTLP writer closes (defers run last-in-first-out).
	ctx := context.Background()
	if tracer != nil {
		var root tracing.Span
		ctx, root = tracer.StartRoot(ctx, "hbmsim.run")
		root.SetAttr("workload", wl.Name)
		defer root.End()
	}

	cfg, err := core.ConfigSpec{
		HBMSlots:      *k,
		Channels:      *q,
		Arbiter:       *arb,
		Replacement:   *repl,
		Mapping:       *mapping,
		Permuter:      *perm,
		RemapPeriod:   *remap,
		Backend:       *backend,
		BackendParams: *backendP,
		Seed:          *seed,
	}.Config()
	if err != nil {
		fail(err)
	}

	tele := telemetryOptions{
		eventsPath:      *eventsCSV,
		timelinePath:    *timeline,
		window:          hbmsim.Tick(*window),
		perfettoPath:    *perfetto,
		heatTop:         *heatTop,
		watchGap:        hbmsim.Tick(*watchGap),
		optGap:          *optGap || *optGapCSV != "",
		optGapWindow:    hbmsim.Tick(*optGapWin),
		optGapCSV:       *optGapCSV,
		checkpointEvery: hbmsim.Tick(*ckptEvery),
		checkpointPath:  *ckptFile,
		resumePath:      *resume,
	}
	// Opt-in live introspection: with -http unset no listener is opened and
	// no observer is attached.
	if *httpAddr != "" {
		tele.metrics = hbmsim.NewMetricsRegistry()
		tele.progress = &introspect.Progress{}
		tele.totalRefs = wl.TotalRefs()
		srv := introspect.New(tele.metrics, tele.progress)
		srv.EnableTrace(tracer)
		bound, err := srv.Start(*httpAddr)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		slog.Info("introspection listening", "addr", bound,
			"endpoints", "/metrics /progress /debug/vars /debug/pprof/")
	}
	res, col, rs, err := runObserved(ctx, cfg, wl, tele)
	if err != nil {
		// A truncated run still has meaningful partial metrics; anything
		// else (e.g. an unwritable output file) is fatal.
		var trunc *hbmsim.TruncatedError
		if res == nil || !errors.As(err, &trunc) {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "hbmsim: warning: %v\n", err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fail(err)
		}
		return
	}

	bounds := hbmsim.LowerBounds(wl, *k, cfg.Channels)
	title := fmt.Sprintf("Simulation of %s (p=%d, k=%d, q=%d, %s+%s, %s, permuter=%s T=%d)",
		wl.Name, wl.Cores(), *k, cfg.Channels, *arb, *repl, *mapping, *perm, *remap)
	if *backend != "" && *backend != string(hbmsim.BackendReference) {
		title += fmt.Sprintf(" [backend=%s]", *backend)
	}
	tbl := report.NewTable(title, "metric", "value")
	tbl.AddRow("makespan (ticks)", uint64(res.Makespan))
	tbl.AddRow("makespan lower bound", uint64(bounds.Makespan))
	tbl.AddRow("competitive-ratio estimate", hbmsim.CompetitiveRatio(res.Makespan, bounds))
	tbl.AddRow("total refs", res.TotalRefs)
	tbl.AddRow("hits", res.Hits)
	tbl.AddRow("misses", res.Misses)
	tbl.AddRow("hit rate", res.HitRate())
	tbl.AddRow("fetches", res.Fetches)
	tbl.AddRow("evictions", res.Evictions)
	tbl.AddRow("priority remaps", res.Remaps)
	tbl.AddRow("response time mean", res.ResponseMean)
	tbl.AddRow("inconsistency (stddev)", res.Inconsistency)
	tbl.AddRow("response time max", res.ResponseMax)
	tbl.AddRow("max serve gap (starvation)", uint64(res.MaxServeGap))
	tbl.AddRow("avg DRAM queue length", res.AvgQueueLen)
	tbl.AddRow("far-channel utilization", res.ChannelUtilization)
	if secs := rs.elapsed.Seconds(); secs > 0 {
		tbl.AddRow("throughput (refs/s)", float64(res.TotalRefs)/secs)
	}
	tbl.AddRow("fast-forwarded ticks", rs.ffTicks)
	tbl.AddRow("fast-forward stretches", rs.ffStretches)
	if err := tbl.Render(os.Stdout); err != nil {
		fail(err)
	}

	if *percore {
		fmt.Println()
		pc := report.NewTable("Per-core summary", "core", "refs", "hits", "completion", "resp mean", "resp max")
		for i, c := range res.PerCore {
			pc.AddRow(i, c.Refs, c.Hits, uint64(c.Completion), c.ResponseMean, c.ResponseMax)
		}
		if err := pc.Render(os.Stdout); err != nil {
			fail(err)
		}
	}

	if col != nil {
		if err := col.report(os.Stdout); err != nil {
			fail(err)
		}
	}
}

func loadWorkload(tracePath, gen string, cores, size, pageBytes int, seed int64) (*hbmsim.Workload, error) {
	switch {
	case tracePath != "" && gen != "":
		return nil, fmt.Errorf("hbmsim: -trace and -gen are mutually exclusive")
	case tracePath != "":
		return hbmsim.ReadWorkload(tracePath)
	case gen != "":
		return generate(gen, cores, size, pageBytes, seed)
	default:
		return nil, fmt.Errorf("hbmsim: one of -trace or -gen is required")
	}
}

func generate(gen string, cores, size, pageBytes int, seed int64) (*hbmsim.Workload, error) {
	return workloads.Spec{Gen: gen, Cores: cores, Size: size, PageBytes: pageBytes, Seed: seed}.Build()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "hbmsim: %v\n", err)
	os.Exit(1)
}
