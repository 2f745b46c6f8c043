// Command hbmsweep regenerates the paper's evaluation artifacts (figures,
// tables, and ablations) from named experiments, and prints each one's
// paper claim next to the measured result.
//
// Usage:
//
//	hbmsweep -exp fig2a                 # one experiment, default scale
//	hbmsweep -exp all                   # every experiment, in paper order (minutes)
//	hbmsweep -exp all -full             # the whole suite at paper scale (hours)
//	hbmsweep -exp all -md               # Markdown, as EXPERIMENTS.md records it
//	hbmsweep -list                      # list experiment ids
//	hbmsweep -exp fig3 -csv out.csv     # also dump the tables as CSV
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hbmsim/internal/experiments"
	"hbmsim/internal/introspect"
	"hbmsim/internal/membackend"
	"hbmsim/internal/metrics"
	"hbmsim/internal/report"
	"hbmsim/internal/sweep"
	"hbmsim/internal/tracing"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id, comma-separated list, or 'all'")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		full      = flag.Bool("full", false, "use paper-scale parameters (slow)")
		seed      = flag.Int64("seed", 1, "random seed for workloads and policies")
		workers   = flag.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS)")
		csvPath   = flag.String("csv", "", "write the experiments' tables as CSV to this file")
		svgDir    = flag.String("svg", "", "write each figure's chart as <id>.svg into this directory")
		chart     = flag.Bool("chart", true, "render ASCII charts for figures")
		markdown  = flag.Bool("md", false, "print Markdown (claim, result, runtime and tables per experiment; no charts), as EXPERIMENTS.md records it")
		sortN     = flag.Int("sortn", 0, "override sort workload size")
		spgemmN   = flag.Int("spgemmn", 0, "override SpGEMM dimension")
		backend   = flag.String("backend", "", "run every experiment under this far-memory model: reference|bandwidth|hybrid (empty = each experiment's own choice)")
		backendP  = flag.String("backend-params", "", "backend parameters for -backend as key=value,... (e.g. bytes_per_tick=8)")
		threads   = flag.String("threads", "", "override the thread-count axis, e.g. 8,32,128,200")
		slots     = flag.String("k", "", "override the HBM-size axis, e.g. 1000,3000,5000")
		httpAddr  = flag.String("http", "", "serve /metrics, /progress, /debug/vars, /debug/pprof on this address (e.g. :8080; empty = no listener)")
		logLevel  = flag.String("log-level", "info", "structured-log level: debug|info|warn|error")
		journal   = flag.String("journal", "", "append each completed sweep row to this crash-tolerant journal file; pair with -resume to continue an interrupted run")
		optWin    = flag.Uint64("optgap-window", 0, "snapshot cadence in ticks for experiments with live optimality tracking, e.g. -exp optgap (0 = 4096)")
		traceOn   = flag.Bool("trace", false, "trace the run as spans (experiments, sweep rows, journal fsyncs); view on -http /debug/trace or export with -trace-file")
		traceRate = flag.Float64("trace-sample", 1, "head-sampling probability for -trace in (0,1]")
		traceFile = flag.String("trace-file", "", "append finished spans to this file as OTLP JSON lines (implies -trace)")
	)
	// -resume is a bare switch: the journal file is always named by
	// -journal, for both writing and resuming. flag.BoolFunc (instead of
	// flag.Bool) lets us catch the natural mistake `-resume=FILE` with a
	// one-line hint rather than a parse error plus a full usage dump.
	resume := false
	flag.BoolFunc("resume", "replay rows already recorded in -journal instead of re-running them (bare switch; the file is named by -journal)", func(s string) error {
		v, err := strconv.ParseBool(s)
		if err != nil {
			return fmt.Errorf("-resume takes no value; name the journal file with -journal, e.g. `hbmsweep -exp fig2a -journal %s -resume`", s)
		}
		resume = v
		return nil
	})
	flag.Usage = compactUsage
	flag.Parse()

	if resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "hbmsweep: -resume needs -journal FILE to name the journal to resume from, e.g. `hbmsweep -exp fig2a -journal fig2a.jnl -resume`")
		os.Exit(2)
	}

	if _, err := introspect.SetupLogging(os.Stderr, *logLevel); err != nil {
		fmt.Fprintf(os.Stderr, "hbmsweep: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "hbmsweep: -exp is required (try -list)")
		os.Exit(2)
	}

	// Opt-in span tracing: one root span for the invocation; experiments,
	// sweep rows, and journal fsyncs nest under it. -trace-file alone also
	// enables it (an export target is an unambiguous request to trace).
	var tracer *tracing.Tracer
	runCtx := context.Background()
	if *traceOn || *traceFile != "" {
		topts := tracing.Options{Sample: *traceRate}
		if *traceFile != "" {
			otlp, closeOTLP, err := tracing.OpenOTLPFile(*traceFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hbmsweep: opening -trace-file: %v\n", err)
				os.Exit(2)
			}
			defer closeOTLP()
			topts.Exporters = append(topts.Exporters, otlp)
		}
		tracer = tracing.New(topts)
		var root tracing.Span
		runCtx, root = tracer.StartRoot(runCtx, "hbmsweep.run")
		root.SetAttr("exp", *exp)
		defer root.End()
	}

	o := experiments.Default()
	if *full {
		o = experiments.Full()
	}
	o.Ctx = runCtx
	o.Seed = *seed
	o.Workers = *workers
	o.OptGapWindow = *optWin
	if *sortN > 0 {
		o.SortN = *sortN
	}
	if *spgemmN > 0 {
		o.SpGEMMN = *spgemmN
	}
	if *backend != "" || *backendP != "" {
		bc, err := membackend.Parse(*backend, *backendP)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbmsweep: -backend: %v\n", err)
			os.Exit(2)
		}
		o.Backend = bc
	}
	if *threads != "" {
		v, err := parseInts(*threads)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbmsweep: -threads: %v\n", err)
			os.Exit(2)
		}
		o.Threads = v
	}
	if *slots != "" {
		v, err := parseInts(*slots)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbmsweep: -k: %v\n", err)
			os.Exit(2)
		}
		o.HBMSlots = v
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.IDs()
	}

	// Opt-in live introspection: with -http unset, no listener is opened,
	// no registry exists, and the experiments run exactly as before.
	intro := newIntrospection(*httpAddr, tracer)
	if intro != nil {
		defer intro.srv.Close()
		o.Metrics = intro.reg
		o.OnProgress = intro.onProgress
	}

	// Opt-in crash tolerance: every completed row lands in the journal as
	// soon as it finishes, and -resume replays journaled rows instead of
	// re-running their jobs.
	if *journal != "" {
		j, err := sweep.OpenJournal(*journal)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbmsweep: %v\n", err)
			os.Exit(1)
		}
		defer j.Close()
		o.Journal = j
		o.Resume = resume
		if resume && j.Len() > 0 {
			slog.Info("resuming from journal", "path", *journal, "rows", j.Len())
		}
	}

	var csv *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbmsweep: %v\n", err)
			os.Exit(1)
		}
		csv = f
	}

	if *markdown {
		fmt.Printf("Reproducing every table and figure (seed=%d, full=%v)\n", *seed, *full)
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if intro != nil {
			intro.prog.SetPhase(id, 0)
		}
		slog.Info("experiment starting", "id", id)
		t0 := time.Now()
		out, err := experiments.Run(id, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbmsweep: %s: %v\n", id, err)
			os.Exit(1)
		}
		elapsed := time.Since(t0).Round(time.Millisecond)
		slog.Info("experiment finished", "id", id, "elapsed", elapsed)
		if *markdown {
			printMarkdown(out, elapsed)
		} else {
			printOutcome(out, *chart)
		}
		if csv != nil {
			for _, t := range out.Tables {
				if err := t.WriteCSV(csv); err != nil {
					fmt.Fprintf(os.Stderr, "hbmsweep: writing csv: %v\n", err)
					os.Exit(1)
				}
			}
		}
		if *svgDir != "" && len(out.Series) > 0 {
			if err := writeSVG(*svgDir, out); err != nil {
				fmt.Fprintf(os.Stderr, "hbmsweep: %v\n", err)
				os.Exit(1)
			}
		}
	}
	// Close is where buffered CSV bytes actually reach the disk; a full
	// filesystem surfaces here, and a deferred unchecked Close would turn
	// it into a silent partial file.
	if csv != nil {
		if err := csv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hbmsweep: closing %s: %v\n", *csvPath, err)
			os.Exit(1)
		}
	}
}

// compactUsage keeps flag errors readable: a mistyped flag prints one
// usage line and a pointer to -h instead of the full 20-flag dump. An
// explicit -h / -help still prints every flag.
func compactUsage() {
	fmt.Fprintln(os.Stderr, "usage: hbmsweep -exp <id>[,<id>...] [flags]")
	if helpRequested(os.Args[1:]) {
		flag.PrintDefaults()
	} else {
		fmt.Fprintln(os.Stderr, "run 'hbmsweep -h' for all flags, 'hbmsweep -list' for experiment ids")
	}
}

// helpRequested reports whether the user explicitly asked for help, as
// opposed to tripping a flag-parse error.
func helpRequested(args []string) bool {
	for _, a := range args {
		switch a {
		case "-h", "--h", "-help", "--help":
			return true
		}
	}
	return false
}

// introspection bundles the opt-in live-monitoring state behind -http.
type introspection struct {
	srv  *introspect.Server
	reg  *metrics.Registry
	prog *introspect.Progress
}

// newIntrospection starts the HTTP introspection server, or returns nil —
// opening no listener and creating no registry — when addr is empty. A
// non-nil tracer additionally serves /debug/trace.
func newIntrospection(addr string, tr *tracing.Tracer) *introspection {
	if addr == "" {
		return nil
	}
	in := &introspection{reg: metrics.NewRegistry(), prog: &introspect.Progress{}}
	in.srv = introspect.New(in.reg, in.prog)
	in.srv.EnableTrace(tr)
	bound, err := in.srv.Start(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbmsweep: %v\n", err)
		os.Exit(1)
	}
	slog.Info("introspection listening", "addr", bound,
		"endpoints", "/metrics /progress /debug/vars /debug/pprof/")
	return in
}

// onProgress forwards sweep updates to the /progress view and the debug
// log.
func (in *introspection) onProgress(p sweep.Progress) {
	in.prog.Update(p.Completed, p.Total, p.Failed, p.Elapsed, p.ETA)
	slog.Debug("sweep progress", "completed", p.Completed, "total", p.Total,
		"failed", p.Failed, "eta", p.ETA.Round(time.Second))
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// writeSVG saves the experiment's chart as <dir>/<id>.svg.
func writeSVG(dir string, out *experiments.Outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, out.ID+".svg")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteSVG(f, out.ChartTitle, 640, 400, out.Series...); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func printOutcome(out *experiments.Outcome, chart bool) {
	fmt.Printf("\n== %s ==\n", out.Title)
	fmt.Printf("paper:    %s\n", out.PaperClaim)
	fmt.Printf("measured: %s\n\n", out.Headline)
	for _, t := range out.Tables {
		if err := t.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "hbmsweep: rendering table: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if chart && len(out.Series) > 0 {
		if err := report.Chart(os.Stdout, out.ChartTitle, 72, 18, out.Series...); err != nil {
			fmt.Fprintf(os.Stderr, "hbmsweep: rendering chart: %v\n", err)
			os.Exit(1)
		}
	}
}

// printMarkdown prints one experiment as a section of EXPERIMENTS.md:
// its heading, claim, result and runtime, then its tables.
func printMarkdown(out *experiments.Outcome, elapsed time.Duration) {
	fmt.Printf("\n## %s — %s\n\n", out.ID, out.Title)
	fmt.Printf("- **Paper:** %s\n", out.PaperClaim)
	fmt.Printf("- **Measured:** %s\n", out.Headline)
	fmt.Printf("- **Runtime:** %s\n\n", elapsed)
	for _, t := range out.Tables {
		if t.Title != "" {
			fmt.Printf("**%s**\n\n", t.Title)
		}
		fmt.Print("|")
		for _, h := range t.Headers {
			fmt.Printf(" %s |", h)
		}
		fmt.Print("\n|")
		for range t.Headers {
			fmt.Print("---|")
		}
		fmt.Println()
		for _, row := range t.Rows() {
			fmt.Print("|")
			for _, c := range row {
				fmt.Printf(" %s |", c)
			}
			fmt.Println()
		}
		fmt.Println()
	}
}
