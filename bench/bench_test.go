package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes os.Executable() once per workload, and with
// HBMBENCH_AS_MAIN set the test binary runs main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("HBMBENCH_AS_MAIN") == "1" {
		main()
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesTables pins BENCHMARK.json to the metric tables the
// program emits from: same workloads, names, units and directions.
func TestSpecMatchesTables(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	var got, want []string
	maxBound := 0.0
	for _, m := range spec.EndToEnd {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound < maxBound {
			t.Errorf("setup_s bound %g is not the largest (%g)", m.Bound, maxBound)
		}
	}
	for _, d := range endToEnd {
		want = append(want, d.name+" "+d.unit+" "+d.better)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("end_to_end:\n BENCHMARK.json %v\n program        %v", got, want)
	}
	got, want = nil, nil
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, d := range perLayer {
		want = append(want, d.name+" "+d.unit+" "+d.better)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("per_layer:\n BENCHMARK.json %v\n program        %v", got, want)
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks that each emits exactly its declared metrics with their units,
// that every correctness check passes, and that -compare reads the
// results back.
func TestSmoke(t *testing.T) {
	t.Setenv("HBMBENCH_AS_MAIN", "1")
	spec := loadSpec(t)
	dir := t.TempDir()
	units := map[string]string{}
	declared := [2][]string{}
	for _, m := range spec.EndToEnd {
		units[m.Name] = m.Unit
		declared[0] = append(declared[0], m.Name)
	}
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
		declared[1] = append(declared[1], m.Name)
	}

	var outs [2]string
	for mode := 0; mode < 2; mode++ {
		outs[mode] = filepath.Join(dir, fmt.Sprintf("trace%d.json", mode))
		var stdout, stderr bytes.Buffer
		code := run([]string{"-smoke", "-seconds", "0.05", "-trace", fmt.Sprint(mode),
			"-trace-dir", dir, "-workdir", dir, "-out", outs[mode]}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %d: exit %d\n%s%s", mode, code, stdout.String(), stderr.String())
		}
		docs, err := loadDocs(outs[mode])
		if err != nil {
			t.Fatal(err)
		}
		if len(docs[0].Results) != len(workloadNames) {
			t.Fatalf("trace %d: %d results, want %d", mode, len(docs[0].Results), len(workloadNames))
		}
		for _, r := range docs[0].Results {
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%t attempted=%d failed=%d %v", r.Workload, mode, r.Correct, r.Attempted, r.Failed, r.Problems)
			}
			if len(r.Digests) == 0 {
				t.Errorf("%s: no result digests", r.Workload)
			}
			var names []string
			for _, m := range r.Metrics {
				names = append(names, m.Name)
				if m.Unit != units[m.Name] {
					t.Errorf("%s %s: unit %q, declared %q", r.Workload, m.Name, m.Unit, units[m.Name])
				}
				if mode == 0 && m.Value <= 0 {
					t.Errorf("%s %s: end-to-end value %g is not positive", r.Workload, m.Name, m.Value)
				}
			}
			sort.Strings(names)
			want := append([]string(nil), declared[mode]...)
			sort.Strings(want)
			if fmt.Sprint(names) != fmt.Sprint(want) {
				t.Errorf("%s trace %d emits %v, declared %v", r.Workload, mode, names, want)
			}
			if mode == 1 {
				if len(r.SelfTimes) == 0 {
					t.Errorf("%s: traced run has no self-time table", r.Workload)
				}
				b, err := os.ReadFile(filepath.Join(dir, r.Workload+".perfetto.json"))
				var events []map[string]any
				if err == nil {
					err = json.Unmarshal(b, &events)
				}
				if err != nil || len(events) < 2 {
					t.Errorf("%s: perfetto trace: %v (%d events)", r.Workload, err, len(events))
				}
			}
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", outs[0], outs[0]}, &stdout, &stderr); code != 0 {
		t.Fatalf("-compare: exit %d: %s", code, stderr.String())
	}
	for _, name := range workloadNames {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-compare output lacks %s:\n%s", name, stdout.String())
		}
	}
	if strings.Contains(stdout.String(), "DIFFERENT") || strings.Contains(stdout.String(), "CHANGED") {
		t.Errorf("a result compared against itself differs:\n%s", stdout.String())
	}
}

// TestSummaryLine checks the single-workload form: the last line of
// standard output is the JSON result with exactly the keys correct,
// attempted, failed and metrics, and every end-to-end metric.
func TestSummaryLine(t *testing.T) {
	t.Setenv("HBMBENCH_AS_MAIN", "1")
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "sim-hitstretch", "--seed", "7", "--seconds", "0.05", "--trace", "0",
		"-smoke", "-workdir", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if fmt.Sprint(keys) != "[attempted correct failed metrics]" {
		t.Fatalf("keys %v", keys)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		m, ok := metrics[d.name]
		if !ok || m["unit"] != d.unit || len(m) != 2 {
			t.Errorf("metric %s: %v", d.name, m)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("scratch state left behind: %v", entries)
	}
}

// TestWaitSurvivesMissingTerminalEvent pins the client's answer to a
// stream that stays open after its job ended (the service drops updates
// for a full subscriber buffer, the terminal one included): wait asks
// GET /jobs/{id}, finds the job done, and reports the stall.
func TestWaitSurvivesMissingTerminalEvent(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/jobs/7/events":
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, "event: update\ndata: {\"id\":7,\"kind\":\"sim\",\"state\":\"running\"}\n\n")
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		case "/jobs/7":
			fmt.Fprint(w, `{"id":7,"kind":"sim","state":"done"}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	s := &server{http: ts, client: ts.Client()}
	stalled, err := s.wait(context.Background(), 7)
	if err != nil || !stalled {
		t.Fatalf("wait = (stalled %t, %v), want (true, nil)", stalled, err)
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-compare", "only-one.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed a result: %s", args, stdout.String())
		}
	}
}
