package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hbmsim"

	"hbmsim/internal/workloads"
)

// TestMainHelperProcess runs main with the arguments after "--" when
// this test binary is re-executed by runCLI; a plain test run has no
// "--" and skips it.
func TestMainHelperProcess(t *testing.T) {
	for i, a := range os.Args {
		if a == "--" {
			os.Args = append([]string{"traceinfo"}, os.Args[i+1:]...)
			main()
			os.Exit(0)
		}
	}
	t.Skip("helper for the process-level tests below")
}

// runCLI runs traceinfo in a child process and returns its stdout, its
// stderr and its exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainHelperProcess$", "--"}, args...)...)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("running traceinfo: %v", err)
	}
	return out.String(), errOut.String(), code
}

// TestNoCoresRefused: a trace with no cores, binary or text, exits 1
// with a one-line error instead of panicking on the empty curve list.
func TestNoCoresRefused(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"empty.hbmt": "HBMT\x01\x00\x00",
		"empty.txt":  "",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, stderr, code := runCLI(t, "-trace", path)
		if code != 1 || strings.Contains(stderr, "panic") ||
			!strings.HasPrefix(stderr, "traceinfo: ") || strings.Count(stderr, "\n") != 1 {
			t.Fatalf("%s: exit %d, stderr %q; want exit 1 and one traceinfo: line", name, code, stderr)
		}
	}
}

// TestPrintsBothTables runs traceinfo on a small trace written the way
// tracegen writes one.
func TestPrintsBothTables(t *testing.T) {
	wl, err := workloads.Spec{Gen: "spgemm", Cores: 3, Size: 24, PageBytes: 64, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sp.hbmt")
	if err := hbmsim.WriteWorkload(path, wl); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runCLI(t, "-trace", path, "-k", "16,64")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"3 cores", "Per-core reuse profile", "Miss ratios and static partitioning"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("output lacks %q:\n%s", want, stdout)
		}
	}
}
