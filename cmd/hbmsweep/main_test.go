package main

import (
	"io"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hbmsim/internal/experiments"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts(" 8, 32 ,128")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 8 || got[1] != 32 || got[2] != 128 {
		t.Fatalf("parsed %v", got)
	}
	for _, bad := range []string{"", "a", "0", "-3", "1,,2"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestNoListenerWithoutFlag: with -http unset, no introspection state (and
// so no listener, registry, or observer) exists at all.
func TestNoListenerWithoutFlag(t *testing.T) {
	if in := newIntrospection("", nil); in != nil {
		t.Fatalf("empty -http started introspection: %+v", in)
	}
}

// fastOptions shrinks the experiment suite enough for a unit test.
func fastOptions() experiments.Options {
	o := experiments.Default()
	o.SortN = 400
	o.SpGEMMN = 24
	o.Threads = []int{2, 4}
	o.HBMSlots = []int{40}
	o.Workers = 2
	return o
}

// TestIntrospectionServesLiveSweep runs a real (tiny) experiment with the
// -http surface attached and checks /metrics and /progress reflect it —
// and that the attached introspection does not change the experiment's
// measured outcome.
func TestIntrospectionServesLiveSweep(t *testing.T) {
	const id = "fig2a"
	plain, err := experiments.Run(id, fastOptions())
	if err != nil {
		t.Fatal(err)
	}

	in := newIntrospection("127.0.0.1:0", nil)
	defer in.srv.Close()
	o := fastOptions()
	o.Metrics = in.reg
	o.OnProgress = in.onProgress
	in.prog.SetPhase(id, 0)
	observed, err := experiments.Run(id, o)
	if err != nil {
		t.Fatal(err)
	}

	if plain.Headline != observed.Headline || !reflect.DeepEqual(plain.Tables, observed.Tables) {
		t.Fatalf("introspection changed the outcome:\nplain:    %s\nobserved: %s",
			plain.Headline, observed.Headline)
	}

	fetch := func(path string) string {
		resp, err := http.Get("http://" + in.srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	mtx := fetch("/metrics")
	for _, want := range []string{
		"sweep_jobs_started_total", "sweep_jobs_finished_total", "sweep_job_seconds_bucket",
	} {
		if !strings.Contains(mtx, want) {
			t.Errorf("/metrics missing %s:\n%s", want, mtx)
		}
	}
	if strings.Contains(mtx, "sweep_jobs_failed_total 0\n") == false {
		t.Errorf("/metrics reports sweep failures:\n%s", mtx)
	}
	prog := fetch("/progress")
	if !strings.Contains(prog, `"phase": "fig2a"`) {
		t.Errorf("/progress missing phase:\n%s", prog)
	}
}

// TestExperimentsDocMatchesRegistry holds EXPERIMENTS.md to the
// registry: a "## <id> — " section for every experiment, in IDs() order,
// the order `hbmsweep -exp all -md` regenerates them in.
func TestExperimentsDocMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	prev, prevID := -1, ""
	for _, id := range experiments.IDs() {
		at := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "## "+id+" — ") })
		switch {
		case at < 0:
			t.Errorf("EXPERIMENTS.md has no %q section", "## "+id+" — ")
			continue
		case at < prev:
			t.Errorf("EXPERIMENTS.md puts %s (line %d) before %s (line %d), against the registry's order", id, at+1, prevID, prev+1)
		}
		prev, prevID = at, id
	}
}

// TestDesignIndexNamesEveryExperiment holds DESIGN.md §5, the
// experiment index, to the registry: every experiment appears there as
// `hbmsweep -exp <id>`.
func TestDesignIndexNamesEveryExperiment(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(doc), "\n## 5. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 5")
	}
	index, _, _ = strings.Cut(index, "\n## 6. ")
	for _, id := range experiments.IDs() {
		if !strings.Contains(index, "`hbmsweep -exp "+id+"`") {
			t.Errorf("DESIGN.md §5 does not name `hbmsweep -exp %s`", id)
		}
	}
}

// TestExperimentsDocTablesMatchCode holds EXPERIMENTS.md's recorded
// results to the code for the experiments that run in milliseconds: each
// one, run with the default options at seed 1 and printed by
// printMarkdown, must equal its section of the file line for line, the
// runtime line aside. directmap reads SortTrace's raw page IDs, so its
// table also pins them.
func TestExperimentsDocTablesMatchCode(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.Default()
	o.Seed = 1
	for _, id := range []string{"table2a", "table2b", "fig6", "knl-properties", "directmap"} {
		out, err := experiments.Run(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var printed strings.Builder
		printMarkdown(&printed, out, 0)
		got, want := docSection(printed.String(), id), docSection(string(doc), id)
		if len(want) == 0 {
			t.Errorf("EXPERIMENTS.md has no %q section", "## "+id+" — ")
			continue
		}
		for i := range max(len(got), len(want)) {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Errorf("%s: line %d of the section prints\n\t%q\nEXPERIMENTS.md has\n\t%q", id, i+1, g, w)
				break
			}
		}
	}
}

// docSection returns the lines of md's "## <id> — " section, up to the
// next "## " heading, leaving out the "- **Runtime:**" line and the
// trailing blank lines.
func docSection(md, id string) []string {
	lines := strings.Split(md, "\n")
	start := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "## "+id+" — ") })
	if start < 0 {
		return nil
	}
	var out []string
	for i, l := range lines[start:] {
		if i > 0 && strings.HasPrefix(l, "## ") {
			break
		}
		if !strings.HasPrefix(l, "- **Runtime:** ") {
			out = append(out, l)
		}
	}
	for len(out) > 0 && out[len(out)-1] == "" {
		out = out[:len(out)-1]
	}
	return out
}

// TestMarkdownOutput runs `hbmsweep -md` on two fast experiments: a
// header line, then per experiment its section heading, claim, result
// and runtime, and its tables as Markdown, with no chart.
func TestMarkdownOutput(t *testing.T) {
	out, err := exec.Command(sweepBinary(t), "-exp", "table2a,fig6", "-md", "-seed", "3").Output()
	if err != nil {
		t.Fatalf("hbmsweep -md: %v", err)
	}
	s := string(out)
	if want := "Reproducing every table and figure (seed=3, full=false)\n\n## table2a — "; !strings.HasPrefix(s, want) {
		t.Fatalf("output starts %q, want %q", s[:min(len(s), 80)], want)
	}
	for _, want := range []string{"\n## fig6 — ", "\n- **Paper:** ", "\n- **Measured:** ", "\n- **Runtime:** ", "\n|---|"} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "== ") {
		t.Errorf("Markdown output holds a plain-text heading or chart:\n%s", s)
	}
}
