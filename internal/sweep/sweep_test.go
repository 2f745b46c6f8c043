package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hbmsim/internal/core"
	"hbmsim/internal/metrics"
	"hbmsim/internal/trace"
)

func testWorkload() *trace.Workload {
	return trace.NewWorkload("w", []trace.Trace{
		{0, 1, 2, 0, 1, 2},
		{0, 1, 0, 1},
	})
}

func TestRunOrderPreserved(t *testing.T) {
	wl := testWorkload()
	var jobs []Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, Job{
			Name:     fmt.Sprintf("job-%d", i),
			Config:   core.Config{HBMSlots: 2 + i, Channels: 1},
			Workload: wl,
		})
	}
	rows := RunContext(context.Background(), jobs, Options{Workers: 4})
	if len(rows) != len(jobs) {
		t.Fatalf("rows: %d, want %d", len(rows), len(jobs))
	}
	for i, r := range rows {
		if r.Job.Name != jobs[i].Name {
			t.Fatalf("row %d holds job %q", i, r.Job.Name)
		}
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if r.Result == nil || r.Result.TotalRefs != wl.TotalRefs() {
			t.Fatalf("job %d result wrong: %+v", i, r.Result)
		}
	}
	if err := FirstError(rows); err != nil {
		t.Fatalf("FirstError on clean rows: %v", err)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	wl := testWorkload()
	jobs := []Job{
		{Name: "good", Config: core.Config{HBMSlots: 4, Channels: 1}, Workload: wl},
		{Name: "bad", Config: core.Config{HBMSlots: 0, Channels: 1}, Workload: wl},
	}
	rows := RunContext(context.Background(), jobs, Options{Workers: 2})
	if rows[0].Err != nil {
		t.Fatalf("good job errored: %v", rows[0].Err)
	}
	if rows[1].Err == nil {
		t.Fatal("bad job did not error")
	}
	err := FirstError(rows)
	if err == nil {
		t.Fatal("FirstError missed the failure")
	}
	if want := `job "bad"`; !contains(err.Error(), want) {
		t.Fatalf("error %q does not name the job", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestRunWorkerClamping(t *testing.T) {
	wl := testWorkload()
	jobs := []Job{{Name: "solo", Config: core.Config{HBMSlots: 2, Channels: 1}, Workload: wl}}
	for _, workers := range []int{-1, 0, 1, 100} {
		rows := RunContext(context.Background(), jobs, Options{Workers: workers})
		if len(rows) != 1 || rows[0].Err != nil {
			t.Fatalf("workers=%d: %+v", workers, rows)
		}
	}
}

func TestRunEmptyJobs(t *testing.T) {
	rows := RunContext(context.Background(), nil, Options{Workers: 4})
	if len(rows) != 0 {
		t.Fatalf("empty jobs returned %d rows", len(rows))
	}
}

// TestRunPanicBecomesRowError: one poisoned job (nil workload panics in
// the worker) must not crash the sweep or lose the other rows.
func TestRunPanicBecomesRowError(t *testing.T) {
	wl := testWorkload()
	jobs := []Job{
		{Name: "before", Config: core.Config{HBMSlots: 4, Channels: 1}, Workload: wl},
		{Name: "boom", Config: core.Config{HBMSlots: 4, Channels: 1}, Workload: nil},
		{Name: "after", Config: core.Config{HBMSlots: 4, Channels: 1}, Workload: wl},
	}
	rows := RunContext(context.Background(), jobs, Options{Workers: 2})
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, i := range []int{0, 2} {
		if rows[i].Err != nil || rows[i].Result == nil {
			t.Fatalf("row %d (%s) lost to the panic: %+v", i, rows[i].Job.Name, rows[i])
		}
	}
	if rows[1].Err == nil {
		t.Fatal("panicking job reported no error")
	}
	if !strings.Contains(rows[1].Err.Error(), "panicked") || !strings.Contains(rows[1].Err.Error(), `"boom"`) {
		t.Fatalf("panic error does not name the job: %v", rows[1].Err)
	}
	if rows[1].Result != nil {
		t.Fatal("panicking job returned a result")
	}
}

func TestRunContextCancelMarksUndispatched(t *testing.T) {
	wl := testWorkload()
	var jobs []Job
	for i := 0; i < 64; i++ {
		jobs = append(jobs, Job{Name: fmt.Sprintf("j%d", i), Config: core.Config{HBMSlots: 3, Channels: 1}, Workload: wl})
	}
	ctx, cancel := context.WithCancel(context.Background())
	rows := RunContext(ctx, jobs, Options{
		Workers: 1,
		OnProgress: func(p Progress) {
			if p.Completed == 1 {
				cancel()
			}
		},
	})
	if len(rows) != len(jobs) {
		t.Fatalf("got %d rows, want %d", len(rows), len(jobs))
	}
	var finished, cancelled int
	for i, r := range rows {
		switch {
		case r.Err == nil && r.Result != nil:
			finished++
		case r.Err != nil && errors.Is(r.Err, context.Canceled):
			cancelled++
			if r.Result != nil {
				t.Fatalf("row %d cancelled but has a result", i)
			}
			if r.Job.Name != jobs[i].Name {
				t.Fatalf("cancelled row %d lost its job", i)
			}
		default:
			t.Fatalf("row %d in impossible state: %+v", i, r)
		}
	}
	if finished == 0 {
		t.Fatal("no job finished before the cancel")
	}
	if cancelled == 0 {
		t.Fatal("cancel left no undispatched jobs marked")
	}
}

func TestRunContextProgressSequence(t *testing.T) {
	wl := testWorkload()
	jobs := []Job{
		{Name: "a", Config: core.Config{HBMSlots: 3, Channels: 1}, Workload: wl},
		{Name: "bad", Config: core.Config{HBMSlots: 0, Channels: 1}, Workload: wl},
		{Name: "c", Config: core.Config{HBMSlots: 3, Channels: 1}, Workload: wl},
	}
	var got []Progress
	RunContext(context.Background(), jobs, Options{
		Workers:    2,
		OnProgress: func(p Progress) { got = append(got, p) }, // serialized by contract
	})
	if len(got) != len(jobs) {
		t.Fatalf("got %d progress updates, want %d", len(got), len(jobs))
	}
	for i, p := range got {
		if p.Completed != i+1 || p.Total != len(jobs) {
			t.Fatalf("update %d = %+v", i, p)
		}
		if p.Elapsed < 0 || p.ETA < 0 {
			t.Fatalf("update %d has negative times: %+v", i, p)
		}
	}
	last := got[len(got)-1]
	if last.Failed != 1 {
		t.Fatalf("final update counts %d failures, want 1", last.Failed)
	}
	if last.ETA != 0 {
		t.Fatalf("final update ETA = %v, want 0", last.ETA)
	}
}

// TestETA pins the one extrapolation every progress report uses,
// including a rate under a nanosecond per item, which integer division
// of the elapsed time would round down to zero.
func TestETA(t *testing.T) {
	for _, tc := range []struct {
		name             string
		completed, total int
		elapsed, want    time.Duration
	}{
		{"nothing done", 0, 10, time.Second, 0},
		{"everything done", 10, 10, time.Second, 0},
		{"past the total", 11, 10, time.Second, 0},
		{"empty", 0, 0, 0, 0},
		{"a quarter done", 1, 4, 3 * time.Second, 9 * time.Second},
		{"under a nanosecond each", 1000, 3000, 500 * time.Nanosecond, 1000 * time.Nanosecond},
		{"7.5 ns each", 2, 12_600_002, 15 * time.Nanosecond, 94_500_000 * time.Nanosecond},
	} {
		if got := ETA(tc.completed, tc.total, tc.elapsed); got != tc.want {
			t.Errorf("%s: ETA(%d, %d, %v) = %v, want %v", tc.name, tc.completed, tc.total, tc.elapsed, got, tc.want)
		}
	}
}

func TestRunContextMetrics(t *testing.T) {
	wl := testWorkload()
	jobs := []Job{
		{Name: "a", Config: core.Config{HBMSlots: 3, Channels: 1}, Workload: wl},
		{Name: "bad", Config: core.Config{HBMSlots: 0, Channels: 1}, Workload: wl},
		{Name: "c", Config: core.Config{HBMSlots: 3, Channels: 1}, Workload: wl},
	}
	reg := metrics.NewRegistry()
	RunContext(context.Background(), jobs, Options{Workers: 2, Metrics: reg})
	check := func(name string, want uint64) {
		t.Helper()
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	check("sweep_jobs_started_total", 3)
	check("sweep_jobs_finished_total", 3)
	check("sweep_jobs_failed_total", 1)
	if got := reg.Gauge("sweep_workers", "").Value(); got != 2 {
		t.Errorf("sweep_workers = %d, want 2", got)
	}
	if got := reg.Gauge("sweep_workers_busy", "").Value(); got != 0 {
		t.Errorf("sweep_workers_busy = %d after the sweep, want 0", got)
	}
	h := reg.Histogram("sweep_job_seconds", "", metrics.ExpBuckets(0.001, 2, 20))
	if h.Count() != 3 {
		t.Errorf("sweep_job_seconds count = %d, want 3", h.Count())
	}
}

// TestRunContextDifferential: the introspection surface (metrics,
// progress) must not perturb results — rows are bit-identical to a plain
// Run.
func TestRunContextDifferential(t *testing.T) {
	wl := testWorkload()
	mk := func() []Job {
		var jobs []Job
		for i := 0; i < 10; i++ {
			jobs = append(jobs, Job{
				Name:     fmt.Sprintf("j%d", i),
				Config:   core.Config{HBMSlots: 2 + i%3, Channels: 1, Seed: int64(i)},
				Workload: wl,
			})
		}
		return jobs
	}
	plain := RunContext(context.Background(), mk(), Options{Workers: 4})
	observed := RunContext(context.Background(), mk(), Options{
		Workers:    4,
		Metrics:    metrics.NewRegistry(),
		OnProgress: func(Progress) { time.Sleep(time.Microsecond) },
	})
	for i := range plain {
		if !reflect.DeepEqual(plain[i].Result, observed[i].Result) {
			t.Fatalf("row %d differs with introspection attached", i)
		}
	}
}

func TestRunWorkersExceedJobs(t *testing.T) {
	wl := testWorkload()
	jobs := []Job{
		{Name: "a", Config: core.Config{HBMSlots: 3, Channels: 1}, Workload: wl},
		{Name: "b", Config: core.Config{HBMSlots: 4, Channels: 1}, Workload: wl},
	}
	for _, workers := range []int{3, 64} {
		rows := RunContext(context.Background(), jobs, Options{Workers: workers})
		if len(rows) != 2 || rows[0].Err != nil || rows[1].Err != nil {
			t.Fatalf("workers=%d: %+v", workers, rows)
		}
	}
}

func TestRunZeroJobsAllWorkerCounts(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 8} {
		if rows := RunContext(context.Background(), nil, Options{Workers: workers}); len(rows) != 0 {
			t.Fatalf("workers=%d: %d rows from no jobs", workers, len(rows))
		}
		if rows := RunContext(context.Background(), []Job{}, Options{Workers: workers}); len(rows) != 0 {
			t.Fatalf("workers=%d: %d rows from empty jobs", workers, len(rows))
		}
	}
}

// TestRunDeterministicAcrossGOMAXPROCS pins row ordering and results under
// GOMAXPROCS=1 versus the test binary's default parallelism.
func TestRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	wl := testWorkload()
	mk := func() []Job {
		var jobs []Job
		for i := 0; i < 12; i++ {
			jobs = append(jobs, Job{
				Name:     fmt.Sprintf("j%d", i),
				Config:   core.Config{HBMSlots: 3, Channels: 1, Seed: int64(i)},
				Workload: wl,
			})
		}
		return jobs
	}
	wide := RunContext(context.Background(), mk(), Options{}) // GOMAXPROCS-many workers
	prev := runtime.GOMAXPROCS(1)
	narrow := RunContext(context.Background(), mk(), Options{}) // now a single worker
	runtime.GOMAXPROCS(prev)
	for i := range wide {
		if wide[i].Job.Name != narrow[i].Job.Name {
			t.Fatalf("row %d order differs across GOMAXPROCS", i)
		}
		if !reflect.DeepEqual(wide[i].Result, narrow[i].Result) {
			t.Fatalf("row %d result differs across GOMAXPROCS", i)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	wl := testWorkload()
	mk := func() []Job {
		var jobs []Job
		for i := 0; i < 8; i++ {
			jobs = append(jobs, Job{
				Name:     fmt.Sprintf("j%d", i),
				Config:   core.Config{HBMSlots: 3, Channels: 1, Seed: int64(i)},
				Workload: wl,
			})
		}
		return jobs
	}
	serial := RunContext(context.Background(), mk(), Options{Workers: 1})
	parallel := RunContext(context.Background(), mk(), Options{Workers: 8})
	for i := range serial {
		if serial[i].Result.Makespan != parallel[i].Result.Makespan {
			t.Fatalf("job %d differs across worker counts", i)
		}
	}
}

// TestRunContextCancelTerminalProgress pins the terminal Progress
// contract on cancellation: one final update folds every never-dispatched
// job into Completed and Failed, so Completed always reaches Total. (A
// cancelled sweep used to stop reporting at the last finished job,
// leaving progress consumers waiting forever.)
func TestRunContextCancelTerminalProgress(t *testing.T) {
	wl := testWorkload()
	var jobs []Job
	for i := 0; i < 32; i++ {
		jobs = append(jobs, Job{Name: fmt.Sprintf("j%d", i), Config: core.Config{HBMSlots: 3, Channels: 1}, Workload: wl})
	}
	ctx, cancel := context.WithCancel(context.Background())
	var updates []Progress
	rows := RunContext(ctx, jobs, Options{
		Workers: 1,
		OnProgress: func(p Progress) {
			updates = append(updates, p)
			if p.Completed == 1 {
				cancel()
			}
		},
	})
	if len(updates) == 0 {
		t.Fatal("no progress updates")
	}
	last := updates[len(updates)-1]
	if last.Completed != len(jobs) || last.Total != len(jobs) {
		t.Fatalf("terminal update %+v does not cover all %d jobs", last, len(jobs))
	}
	var cancelled int
	for _, r := range rows {
		if r.Err != nil && errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("cancel left no undispatched jobs (test needs a slower pool)")
	}
	if last.Failed < cancelled {
		t.Fatalf("terminal update counts %d failures, want at least the %d cancelled jobs", last.Failed, cancelled)
	}
	for i := 1; i < len(updates); i++ {
		if updates[i].Completed <= updates[i-1].Completed {
			t.Fatalf("Completed not monotone: %+v -> %+v", updates[i-1], updates[i])
		}
	}
}
