package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hbmsim/internal/model"
	"hbmsim/internal/trace"
)

// TestMainHelperProcess re-execs this test binary as the hbmsim CLI when
// the env gate is set: everything after "--" becomes the CLI's argv.
// It is a helper for the process-level tests below, not a test itself.
func TestMainHelperProcess(t *testing.T) {
	if os.Getenv("HBMSIM_HELPER_MAIN") != "1" {
		t.Skip("helper for process-level exit-code tests")
	}
	args := []string{"hbmsim"}
	for i, a := range os.Args {
		if a == "--" {
			args = append(args, os.Args[i+1:]...)
			break
		}
	}
	os.Args = args
	main()
	os.Exit(0)
}

// runCLI runs the hbmsim CLI in a child process and returns its combined
// output and exit error (nil on exit 0).
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=TestMainHelperProcess", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "HBMSIM_HELPER_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestStreamingSinkErrorExitsNonzero pins the flush-path contract from
// the CLI boundary: when a streaming sink swallows writes (/dev/full
// returns ENOSPC on flush), the process must exit nonzero with a
// one-line error naming the problem — never exit 0 leaving a silent
// partial file.
func TestStreamingSinkErrorExitsNonzero(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available on this system")
	}
	for _, tc := range []struct{ name, flag string }{
		{"events", "-events"},
		{"perfetto", "-perfetto"},
		{"optgap-csv", "-optgap-csv"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runCLI(t, "-gen", "stream", "-cores", "2", "-size", "3000",
				"-k", "64", tc.flag, "/dev/full")
			if err == nil {
				t.Fatalf("%s to /dev/full exited 0; output:\n%s", tc.flag, out)
			}
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("running CLI: %v", err)
			}
			if !strings.Contains(out, "hbmsim:") {
				t.Fatalf("no one-line hbmsim error on stderr; output:\n%s", out)
			}
		})
	}
}

// TestBadLogLevelExitsUsageError pins the flag contract: an unknown
// -log-level value is a usage error and must exit 2 (like flag.Parse
// does for unknown flags), not 1, so wrappers can distinguish "called
// wrong" from "run failed".
func TestBadLogLevelExitsUsageError(t *testing.T) {
	out, err := runCLI(t, "-gen", "stream", "-cores", "2", "-size", "100", "-log-level", "loud")
	if err == nil {
		t.Fatalf("-log-level loud exited 0; output:\n%s", out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running CLI: %v", err)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("-log-level loud exited %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "hbmsim:") || !strings.Contains(out, "loud") {
		t.Fatalf("no one-line error naming the bad level; output:\n%s", out)
	}
}

// TestCLISuccessPathsExitZero is the helper's own sanity check plus the
// happy flush path: the same flags against writable files exit 0 and
// leave non-empty outputs.
func TestCLISuccessPathsExitZero(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.csv")
	optgap := filepath.Join(dir, "optgap.csv")
	out, err := runCLI(t, "-gen", "stream", "-cores", "2", "-size", "1000",
		"-k", "64", "-events", events, "-optgap-csv", optgap, "-optgap-window", "32")
	if err != nil {
		t.Fatalf("CLI failed: %v\noutput:\n%s", err, out)
	}
	for _, p := range []string{events, optgap} {
		fi, err := os.Stat(p)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("%s missing or empty after a clean exit (err=%v)", p, err)
		}
	}
	if !strings.Contains(out, "Live optimality telemetry") {
		t.Fatalf("report lacks the optimality table; output:\n%s", out)
	}
}

// TestTruncationWarningNamesTheCap: two cores contending for one HBM
// slot livelock (DESIGN.md §4) until the automatic cap, 8*(8+1) +
// 1024*(2+1+1) = 4168 ticks for this workload. The run still exits 0
// with its partial table, and the warning names the cap that was hit,
// not the makespan, and counts the cores left unfinished.
func TestTruncationWarningNamesTheCap(t *testing.T) {
	out, err := runCLI(t, "-gen", "uniform", "-cores", "2", "-size", "4", "-k", "1", "-q", "1")
	if err != nil {
		t.Fatalf("truncated run failed: %v\noutput:\n%s", err, out)
	}
	const want = "hbmsim: warning: core: simulation truncated at tick 4168 with 2 unfinished cores"
	if !strings.Contains(out, want) {
		t.Fatalf("output lacks %q:\n%s", want, out)
	}
}

// TestSharedPagesExitOne: a three-core trace in which one reference in
// ten of cores 1 and 2 goes to one of core 0's pages 0-7 breaks the
// model's disjointness. The CLI must refuse it with exit 1 and the
// one-line error trace.Workload.Validate words, not panic mid-run.
func TestSharedPagesExitOne(t *testing.T) {
	traces := make([]trace.Trace, 3)
	for i := range traces {
		traces[i] = make(trace.Trace, 200)
		for j := range traces[i] {
			traces[i][j] = model.PageID(1000*i + j%23)
			if i > 0 && j%10 == 9 {
				traces[i][j] = model.PageID(j % 8)
			}
		}
	}
	wl := trace.Raw("overlap", traces)
	verr := wl.Validate()
	if verr == nil {
		t.Fatal("overlap workload is disjoint")
	}
	path := filepath.Join(t.TempDir(), "overlap.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(f, wl); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-trace", path, "-k", "16", "-q", "1")
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("exit %v, want 1; output:\n%s", err, out)
	}
	want := "hbmsim: core: " + strings.TrimPrefix(verr.Error(), "trace: ")
	if !strings.Contains(out, want) || strings.Contains(out, "goroutine") {
		t.Fatalf("output lacks %q or dumps goroutines:\n%s", want, out)
	}
}
