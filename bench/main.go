// Command bench is the repository's end-to-end and per-layer benchmark.
// It runs four workloads, each in its own child process so that memory
// and GC state belong to one workload:
//
//	sim-paper       hbmsim runs on the paper's contended SpGEMM and sort
//	sim-hitstretch  dense MM at half capacity, bare and with a Meter attached
//	serve-jobs      hbmserved jobs over HTTP, one closed-loop client
//	sweep-journal   24-point sweeps over three far-memory backends, journaled
//
// Build and run it from the repository root with
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-trace-dir DIR] [-out F.json]
//	bash bench/run.sh -compare A.json[,A2.json...] B.json[,B2.json...]
//
// Every metric prints as one row "workload metric value unit n". With one
// -workload, the last line of standard output is a JSON object with the
// keys correct, attempted, failed and metrics. The exit code is non-zero
// when any correctness check fails. See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadNames are the workloads in run order; later issues cite them.
var workloadNames = []string{"sim-paper", "sim-hitstretch", "serve-jobs", "sweep-journal"}

func newWorkload(opts options) (workload, error) {
	switch opts.workload {
	case "sim-paper":
		return newSimPaper(opts.seed, opts.smoke), nil
	case "sim-hitstretch":
		return newSimHitstretch(opts.seed, opts.smoke), nil
	case "serve-jobs":
		return newServeJobs(opts.seed, opts.smoke), nil
	case "sweep-journal":
		return newSweepJournal(opts.seed, opts.smoke), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", opts.workload, strings.Join(workloadNames, ", "))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty runs all)")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 25, "length of each workload's measured phase, in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a run alternating traced and untraced operations")
	traceDir := fs.String("trace-dir", "", "with -trace 1, write <workload>.perfetto.json into this directory")
	out := fs.String("out", "", "also write every result, with host facts and digests, to this JSON file")
	compare := fs.Bool("compare", false, "compare result files: -compare A.json[,A2.json...] B.json[,B2.json...]")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "parent of each run's scratch directory (removed after the run)")
	smoke := fs.Bool("smoke", false, "tiny shapes, for the package test")
	child := fs.Bool("child", false, "run one workload in this process (used by the parent process)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two arguments: A.json[,...] B.json[,...]")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*traceMode != 0 && *traceMode != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-trace-dir DIR] [-out F.json]")
		return 2
	}
	opts := options{
		workload: *workloadFlag,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traceMode == 1,
		traceDir: *traceDir,
		workdir:  *workdir,
		smoke:    *smoke,
	}
	if *child {
		return runChild(opts, stdout, stderr)
	}

	names := workloadNames
	if opts.workload != "" {
		if _, err := newWorkload(opts); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		names = []string{opts.workload}
	}
	var results []*childResult
	correct := true
	for _, name := range names {
		o := opts
		o.workload = name
		res, err := spawn(o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		results = append(results, res)
		printResult(stdout, res)
		for _, p := range res.Problems {
			fmt.Fprintf(stderr, "bench: %s: FAIL: %s\n", name, p)
		}
		correct = correct && res.Correct
	}
	if *out != "" {
		doc := resultDoc{Host: readHost(), Seed: opts.seed, Seconds: opts.seconds, Trace: *traceMode, Results: results}
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if len(results) == 1 {
		if err := printSummary(stdout, results[0]); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !correct {
		return 1
	}
	return 0
}

// runChild runs one workload in this process and prints its result as
// one JSON line for the parent.
func runChild(opts options, stdout, stderr io.Writer) int {
	// The service logs every job; keep the cost of formatting the records
	// but not the output.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	res, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// childSlack is how long a child may run beyond its measured phase
// (set-up, checks, a slow first operation) before it is killed.
const childSlack = 150 * time.Second

// spawn re-executes this binary as a child running one workload, waits
// for it, and adds the child's lifetime peak RSS to a traced run's
// metrics.
func spawn(opts options, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	limit := time.Duration(opts.seconds*float64(time.Second)) + childSlack
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	trace := "0"
	if opts.traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child",
		"-workload", opts.workload,
		"-seed", strconv.FormatInt(opts.seed, 10),
		"-seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64),
		"-trace", trace,
		"-trace-dir", opts.traceDir,
		"-workdir", opts.workdir,
		"-smoke="+strconv.FormatBool(opts.smoke))
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("killed after %v", limit)
		}
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("reading the child's result: %w", err)
	}
	if opts.traced {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("no resource usage for the child process")
		}
		m := metricSet{list: res.Metrics}
		m.set("runtime.max_rss_mb", float64(ru.Maxrss)/1024, 1) // Linux reports Maxrss in KiB
		res.Metrics = m.list
	}
	return &res, nil
}

// printResult prints one row per metric, then the self-time table of a
// traced run.
func printResult(w io.Writer, res *childResult) {
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%-15s %-34s %14.6g  %-8s %d\n", res.Workload, m.Name, m.Value, m.Unit, m.N)
	}
	if len(res.SelfTimes) == 0 {
		return
	}
	var total float64
	for _, st := range res.SelfTimes {
		total += st.Self
	}
	fmt.Fprintf(w, "%-15s self time by span (duration minus child spans)\n", res.Workload)
	fmt.Fprintf(w, "%-15s %-30s %7s %12s %12s %7s\n", "", "span", "count", "self_s", "mean_ms", "share")
	for _, st := range res.SelfTimes {
		fmt.Fprintf(w, "%-15s %-30s %7d %12.4f %12.4f %6.1f%%\n", "", st.Name, st.Count, st.Self,
			1e3*st.Total/float64(st.Count), 100*ratio(st.Self, total))
	}
}

// printSummary prints the one-line JSON result: correct, attempted,
// failed and every metric with its unit.
func printSummary(w io.Writer, res *childResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.Metrics))
	for _, m := range res.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// resultDoc is the -out file: enough to compare two runs and to refuse a
// comparison across hosts.
type resultDoc struct {
	Host    hostFacts      `json:"host"`
	Seed    int64          `json:"seed"`
	Seconds float64        `json:"seconds"`
	Trace   int            `json:"trace"`
	Results []*childResult `json:"results"`
}

type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readHost() hostFacts {
	return hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   cpuModel(),
		Commit:     gitCommit(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "" elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitCommit resolves HEAD from the .git directory under the working
// directory without running git; "" when there is none.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
