package serve

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"hbmsim/internal/core"
	"hbmsim/internal/metrics"
)

// testSimSpec is a small single-sim job (~milliseconds).
func testSimSpec() Spec {
	return Spec{
		Kind:     KindSim,
		Name:     "tiny-sim",
		Workload: &WorkloadSpec{Gen: "uniform", Cores: 4, Size: 2000, Seed: 7},
		Config:   &ConfigSpec{HBMSlots: 64, Arbiter: "priority"},
	}
}

// TestSimJobWithBackend runs sim jobs whose specs select a non-default
// far-memory backend or Belady replacement end to end, and checks each
// payload matches a direct core.Run under the same config.
func TestSimJobWithBackend(t *testing.T) {
	s := openTestService(t, t.TempDir(), nil)
	defer s.Close()
	for _, tc := range []struct {
		name string
		edit func(*ConfigSpec)
	}{
		{"hybrid", func(c *ConfigSpec) { c.Backend, c.BackendParams = "hybrid", "fast_slots=8" }},
		{"belady", func(c *ConfigSpec) { c.Replacement = "belady" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSimSpec()
			tc.edit(spec.Config)
			v, err := s.Submit(spec)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			done := waitState(t, s, v.ID, StateDone)
			if done.Result == nil || done.Result.Sim == nil {
				t.Fatal("no sim payload")
			}

			wl, err := spec.Workload.Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := spec.Config.Config()
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(cfg, wl.Raw())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(done.Result.Sim, want) {
				t.Errorf("job result diverged from direct run:\n%+v\nvs\n%+v", done.Result.Sim, want)
			}
			if done.Result.Sim.Makespan <= 0 {
				t.Error("empty result")
			}
		})
	}
}

// testSweepSpec is a sweep over n arbiter points on one workload.
func testSweepSpec(n int) Spec {
	points := make([]Point, n)
	for i := range points {
		points[i] = Point{Config: ConfigSpec{HBMSlots: 32 + 8*i, Arbiter: "priority"}}
	}
	return Spec{
		Kind:     KindSweep,
		Name:     "tiny-sweep",
		Workload: &WorkloadSpec{Gen: "zipf", Cores: 4, Size: 3000, Seed: 11},
		Points:   points,
	}
}

// waitState polls until the job reaches a terminal state (or the wanted
// non-terminal one) and returns its view.
func waitState(t *testing.T, s *Service, id uint64, want State) View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %d disappeared", id)
		}
		if v.State == want || (v.State.Terminal() && want != v.State) {
			if v.State != want {
				t.Fatalf("job %d reached %s (err=%q), want %s", id, v.State, v.Error, want)
			}
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %d never reached %s", id, want)
	return View{}
}

func openTestService(t *testing.T, dir string, mut func(*Options)) *Service {
	t.Helper()
	opts := Options{Dir: dir, Workers: 2, JobWorkers: 2}
	if mut != nil {
		mut(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestSimJobMatchesDirectRun(t *testing.T) {
	s := openTestService(t, t.TempDir(), nil)
	defer s.Close()
	v, err := s.Submit(testSimSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if v.ID != 1 || v.State != StateQueued {
		t.Fatalf("unexpected admission view: %+v", v)
	}
	got := waitState(t, s, v.ID, StateDone)
	if got.Result == nil || got.Result.Sim == nil {
		t.Fatalf("done sim job has no result: %+v", got)
	}

	// The service must produce exactly what a direct core.Run produces.
	spec := testSimSpec()
	wl, err := spec.Workload.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config.Config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(cfg, wl.Raw())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result.Sim, want) {
		t.Errorf("service result differs from direct run:\n got %+v\nwant %+v", got.Result.Sim, want)
	}
}

func TestSweepJobRowsMatchDirectSweep(t *testing.T) {
	s := openTestService(t, t.TempDir(), nil)
	defer s.Close()
	spec := testSweepSpec(3)
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitState(t, s, v.ID, StateDone)
	if got.Result == nil || len(got.Result.Rows) != 3 {
		t.Fatalf("want 3 rows, got %+v", got.Result)
	}

	wl, _ := spec.Workload.Build()
	for i, row := range got.Result.Rows {
		if row.Name != spec.PointName(i) {
			t.Errorf("row %d name %q, want %q", i, row.Name, spec.PointName(i))
		}
		cfg, _ := spec.Points[i].Config.Config()
		want, err := core.Run(cfg, wl.Raw())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(row.Result, want) {
			t.Errorf("row %d differs from direct run", i)
		}
	}
}

func TestExperimentJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full (default-scale) experiment")
	}
	s := openTestService(t, t.TempDir(), nil)
	defer s.Close()
	v, err := s.Submit(Spec{Kind: KindExperiment, Experiment: "fig3"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitState(t, s, v.ID, StateDone)
	exp := got.Result.Experiment
	if exp == nil || exp.ID != "fig3" || len(exp.Tables) == 0 {
		t.Fatalf("experiment payload incomplete: %+v", exp)
	}
	if !strings.Contains(exp.Tables[0].CSV, ",") {
		t.Errorf("table CSV looks empty: %q", exp.Tables[0].CSV)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := openTestService(t, t.TempDir(), nil)
	defer s.Close()
	bad := []Spec{
		{},
		{Kind: "nope"},
		{Kind: KindSim}, // missing workload+config
		{Kind: KindSweep, Workload: &WorkloadSpec{}},       // no points
		{Kind: KindExperiment},                             // no id
		{Kind: KindExperiment, Experiment: "no-such-expt"}, // unknown id
		{Kind: KindSim, Workload: &WorkloadSpec{Gen: "uniform", Cores: 1},
			Config: &ConfigSpec{HBMSlots: 8, Arbiter: "bogus"}}, // unknown arbiter
		{Kind: KindSim, Workload: &WorkloadSpec{Gen: "uniform", Cores: 1},
			Config: &ConfigSpec{HBMSlots: 8}, TimeoutSeconds: -1},
		{Kind: KindSim, Workload: &WorkloadSpec{Gen: "nope", Cores: 1},
			Config: &ConfigSpec{HBMSlots: 8}}, // unknown generator
		{Kind: KindSim, Workload: &WorkloadSpec{Gen: "uniform", Cores: 0},
			Config: &ConfigSpec{HBMSlots: 8}}, // no cores
		{Kind: KindSim, Workload: &WorkloadSpec{Gen: "uniform", Cores: -3},
			Config: &ConfigSpec{HBMSlots: 8}}, // negative cores
		{Kind: KindSim, Workload: &WorkloadSpec{Gen: "densemm", Cores: 1, Size: 16, PageBytes: -8},
			Config: &ConfigSpec{HBMSlots: 8}}, // negative page size
	}
	for i, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if st := s.Stats(); st.Total() != 0 {
		t.Errorf("rejected specs created jobs: %+v", st)
	}
}

func TestQueueBackpressure(t *testing.T) {
	block := make(chan struct{})
	s := openTestService(t, t.TempDir(), func(o *Options) {
		o.Workers = 1
		o.QueueCap = 1
		o.testHookBeforeJob = func(*job) { <-block }
	})
	defer s.Close()
	defer close(block) // unblock the worker before Close waits on it

	if _, err := s.Submit(testSimSpec()); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	// Wait for the worker to pick job 1 up so the queue is empty again.
	waitState(t, s, 1, StateRunning)
	if _, err := s.Submit(testSimSpec()); err != nil {
		t.Fatalf("second submit (fills queue): %v", err)
	}
	_, err := s.Submit(testSimSpec())
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: want ErrQueueFull, got %v", err)
	}
	if reject := s.ins.rejected.Value(); reject != 1 {
		t.Errorf("serve_jobs_rejected_total = %d, want 1", reject)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	block := make(chan struct{})
	s := openTestService(t, t.TempDir(), func(o *Options) {
		o.Workers = 1
		o.testHookBeforeJob = func(*job) { <-block }
	})
	defer s.Close()
	defer close(block)

	v1, _ := s.Submit(testSimSpec())
	waitState(t, s, v1.ID, StateRunning)
	v2, _ := s.Submit(testSimSpec())

	// Queued cancel finalises immediately, without running.
	if v, err := s.Cancel(v2.ID); err != nil || v.State != StateCancelled {
		t.Fatalf("cancel queued: state=%s err=%v", v.State, err)
	}
	// Running cancel takes effect when the worker observes the context.
	if _, err := s.Cancel(v1.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	block <- struct{}{} // release the hooked worker
	got := waitState(t, s, v1.ID, StateCancelled)
	if got.Error == "" {
		t.Error("cancelled job should carry a cause")
	}
	// Cancelling a finished job conflicts.
	if _, err := s.Cancel(v1.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("cancel terminal: want ErrTerminal, got %v", err)
	}
	if _, err := s.Cancel(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown: want ErrNotFound, got %v", err)
	}
}

func TestJobDeadline(t *testing.T) {
	s := openTestService(t, t.TempDir(), func(o *Options) {
		o.testHookBeforeJob = func(*job) { time.Sleep(80 * time.Millisecond) }
	})
	defer s.Close()
	spec := testSimSpec()
	spec.TimeoutSeconds = 0.01
	v, _ := s.Submit(spec)
	got := waitState(t, s, v.ID, StateFailed)
	if !strings.Contains(got.Error, "deadline exceeded") {
		t.Errorf("error %q should mention the deadline", got.Error)
	}
}

// TestTruncatedJobNamesTheCap: two cores contending for one HBM slot
// livelock (DESIGN.md §4) until the automatic tick cap, 8*(8+1) +
// 1024*(2+1+1) = 4168 ticks for this workload. The failed job's error
// names that cap, not the spec's max_ticks of 0, and counts the cores
// left unfinished.
func TestTruncatedJobNamesTheCap(t *testing.T) {
	s := openTestService(t, t.TempDir(), nil)
	defer s.Close()
	v, err := s.Submit(Spec{
		Kind:     KindSim,
		Name:     "livelock",
		Workload: &WorkloadSpec{Gen: "uniform", Cores: 2, Size: 4, Seed: 1},
		Config:   &ConfigSpec{HBMSlots: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, v.ID, StateFailed)
	const want = "simulation truncated at tick 4168 with 2 unfinished cores"
	if !strings.Contains(got.Error, want) {
		t.Fatalf("error %q should contain %q", got.Error, want)
	}
}

func TestWorkerPanicIsolation(t *testing.T) {
	first := true
	s := openTestService(t, t.TempDir(), func(o *Options) {
		o.Workers = 1
		o.testHookBeforeJob = func(*job) {
			if first {
				first = false
				panic("poisoned job")
			}
		}
	})
	defer s.Close()
	v1, _ := s.Submit(testSimSpec())
	got := waitState(t, s, v1.ID, StateFailed)
	if !strings.Contains(got.Error, "poisoned job") {
		t.Errorf("panic not captured: %q", got.Error)
	}
	// The worker survived: the next job runs normally.
	v2, _ := s.Submit(testSimSpec())
	waitState(t, s, v2.ID, StateDone)
}

// TestHardStopRecoveryBitIdentical is the in-process kill test: a sweep
// job is interrupted mid-flight by Close (no terminal record), the
// service reopens on the same directory, resumes the job from its
// journal, and the final rows are identical to an uninterrupted run in a
// fresh directory.
func TestHardStopRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := testSweepSpec(8)

	s1 := openTestService(t, dir, func(o *Options) { o.Workers = 1; o.JobWorkers = 1 })
	v, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one row finish so the journal is non-empty, then kill.
	deadline := time.Now().Add(30 * time.Second)
	for {
		vv, _ := s1.Get(v.ID)
		if vv.Progress != nil && vv.Progress.Completed >= 1 {
			break
		}
		if vv.State.Terminal() {
			t.Fatalf("job finished before it could be interrupted; grow the sweep")
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before deadline")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Close()

	s2 := openTestService(t, dir, nil)
	defer s2.Close()
	vv, ok := s2.Get(v.ID)
	if !ok || !vv.Recovered {
		t.Fatalf("job not recovered after restart: %+v", vv)
	}
	got := waitState(t, s2, v.ID, StateDone)

	s3 := openTestService(t, t.TempDir(), nil)
	defer s3.Close()
	v3, _ := s3.Submit(spec)
	want := waitState(t, s3, v3.ID, StateDone)

	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("recovered rows differ from uninterrupted run")
	}
	if rec := s2.ins.recovered.Value(); rec != 1 {
		t.Errorf("serve_jobs_recovered_total = %d, want 1", rec)
	}
}

// TestSimJobCheckpointRecovery interrupts a sim job, reopens, and pins
// the resumed result against a direct run.
func TestSimJobCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{
		Kind:                 KindSim,
		Workload:             &WorkloadSpec{Gen: "zipf", Cores: 8, Size: 30000, Seed: 3},
		Config:               &ConfigSpec{HBMSlots: 64, Arbiter: "priority", RemapPeriod: 500},
		CheckpointEveryTicks: 512,
	}

	s1 := openTestService(t, dir, nil)
	v, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Interrupt once progress shows the sim mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		vv, _ := s1.Get(v.ID)
		if vv.Progress != nil && vv.Progress.Completed > 0 && vv.State == StateRunning {
			break
		}
		if vv.State.Terminal() {
			t.Skip("sim too fast to interrupt on this machine")
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before deadline")
		}
	}
	s1.Close()

	s2 := openTestService(t, dir, nil)
	defer s2.Close()
	got := waitState(t, s2, v.ID, StateDone)

	wl, _ := spec.Workload.Build()
	cfg, _ := spec.Config.Config()
	want, err := core.Run(cfg, wl.Raw())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result.Sim, want) {
		t.Errorf("resumed sim result differs from direct run")
	}
}

func TestDrainGracefulAndInterrupted(t *testing.T) {
	dir := t.TempDir()
	s := openTestService(t, dir, nil)
	v, _ := s.Submit(testSimSpec())
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	if vv, _ := s.Get(v.ID); vv.State != StateDone {
		t.Fatalf("drained job state %s, want done", vv.State)
	}
	if _, err := s.Submit(testSimSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: want ErrDraining, got %v", err)
	}
	s.Close()

	// Interrupted drain: a held job is abandoned without a terminal
	// record and recovered by the next open.
	dir2 := t.TempDir()
	block := make(chan struct{})
	s2 := openTestService(t, dir2, func(o *Options) {
		o.testHookBeforeJob = func(*job) { <-block }
	})
	v2, _ := s2.Submit(testSimSpec())
	waitState(t, s2, v2.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	// The hook ignores contexts (real jobs don't); release it once the
	// drain gives up so the worker can observe the shutdown cause.
	go func() { <-ctx.Done(); close(block) }()
	drainErr := s2.Drain(ctx)
	if drainErr == nil {
		t.Fatal("interrupted drain should report an error")
	}
	if vv, _ := s2.Get(v2.ID); vv.State != StateQueued {
		t.Fatalf("interrupted job state %s, want queued (resumable)", vv.State)
	}
	s2.Close()

	s3 := openTestService(t, dir2, nil)
	defer s3.Close()
	got := waitState(t, s3, v2.ID, StateDone)
	if !got.Recovered {
		t.Error("job should be marked recovered")
	}
}

// TestRecoveryRefusesChangedSpec pins the fingerprint guard: a journaled
// start fingerprint that no longer matches the spec's rebuild fails the
// job instead of replaying foreign journal rows.
func TestRecoveryRefusesChangedSpec(t *testing.T) {
	dir := t.TempDir()
	spec := testSweepSpec(2)
	man, _, err := openManifest(dir + "/jobs.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if err := man.append(manifestRecord{Op: "submit", ID: 1, Spec: &spec, Unix: 1}); err != nil {
		t.Fatal(err)
	}
	badFP := fpHex(0xdeadbeef)
	if err := man.append(manifestRecord{Op: "start", ID: 1, Fingerprint: &badFP, Unix: 2}); err != nil {
		t.Fatal(err)
	}
	man.Close()

	s := openTestService(t, dir, nil)
	defer s.Close()
	got := waitState(t, s, 1, StateFailed)
	if !strings.Contains(got.Error, "fingerprint mismatch") {
		t.Errorf("error %q should report the fingerprint mismatch", got.Error)
	}
}

func TestTerminalJobsSurviveRestartWithoutRerun(t *testing.T) {
	dir := t.TempDir()
	s1 := openTestService(t, dir, nil)
	v, _ := s1.Submit(testSimSpec())
	done := waitState(t, s1, v.ID, StateDone)
	s1.Close()

	started := false
	s2 := openTestService(t, dir, func(o *Options) {
		o.testHookBeforeJob = func(*job) { started = true }
	})
	defer s2.Close()
	vv, ok := s2.Get(v.ID)
	if !ok || vv.State != StateDone {
		t.Fatalf("terminal job not preserved: %+v", vv)
	}
	if !reflect.DeepEqual(vv.Result, done.Result) {
		t.Error("terminal payload changed across restart")
	}
	time.Sleep(20 * time.Millisecond)
	if started {
		t.Error("finished job was re-run after restart")
	}
}

func TestServeMetricsRegistered(t *testing.T) {
	reg := metrics.NewRegistry()
	s := openTestService(t, t.TempDir(), func(o *Options) { o.Metrics = reg })
	defer s.Close()
	v, _ := s.Submit(testSimSpec())
	waitState(t, s, v.ID, StateDone)
	want := map[string]bool{
		"serve_jobs_submitted_total": false,
		"serve_jobs_started_total":   false,
		"serve_jobs_finished_total":  false,
		"serve_queue_depth":          false,
		"serve_jobs_running":         false,
		"serve_workers":              false,
		"serve_job_seconds":          false,
	}
	for _, snap := range reg.Snapshot() {
		if _, ok := want[snap.Name]; ok {
			want[snap.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("metric %s not registered", name)
		}
	}
	if s.ins.submitted.Value() != 1 || s.ins.finished.Value() != 1 {
		t.Errorf("counters: submitted=%d finished=%d, want 1/1",
			s.ins.submitted.Value(), s.ins.finished.Value())
	}
}

// TestSimJobProgressFromCursors pins a sim job's progress, which is read
// from the simulator's cursors between Steps rather than counted by an
// observer: monotone, with updates mid-run, and a final completed==total.
func TestSimJobProgressFromCursors(t *testing.T) {
	var views []View // appended under the service's lock, read after done
	done := make(chan struct{})
	s := openTestService(t, t.TempDir(), func(o *Options) {
		o.Workers = 1
		o.OnUpdate = func(v View) {
			views = append(views, v)
			if v.State.Terminal() {
				close(done)
			}
		}
	})
	defer s.Close()
	spec := testSimSpec()
	spec.Workload.Size = 20000 // 80000 refs, several 16384-tick progress periods
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("no terminal update")
	}
	if last := views[len(views)-1]; last.State != StateDone {
		t.Fatalf("job ended %s: %s", last.State, last.Error)
	}
	prev, mid := -1, 0
	for _, v := range views {
		if v.Progress == nil {
			continue
		}
		p := v.Progress
		if p.Completed < prev {
			t.Fatalf("progress went backwards: %d after %d", p.Completed, prev)
		}
		if p.Completed > 0 && p.Completed < p.Total {
			mid++
		}
		prev = p.Completed
	}
	if mid == 0 {
		t.Error("no progress update before completion")
	}
	if prev != 80000 {
		t.Errorf("final progress %d, want 80000", prev)
	}
}

// TestProgressEvents pins that a sweep job publishes monotone progress
// with a final completed==total update.
func TestProgressEvents(t *testing.T) {
	var views []View // appended under the service's lock, read after done
	done := make(chan struct{})
	s := openTestService(t, t.TempDir(), func(o *Options) {
		o.Workers = 1
		o.OnUpdate = func(v View) {
			views = append(views, v) // single worker + locked notify: serialized
			if v.State.Terminal() {
				select {
				case <-done:
				default:
					close(done)
				}
			}
		}
	})
	defer s.Close()
	if _, err := s.Submit(testSweepSpec(4)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("no terminal update")
	}
	prev := -1
	for _, v := range views {
		if v.Progress == nil {
			continue
		}
		if v.Progress.Completed < prev {
			t.Fatalf("progress went backwards: %d after %d", v.Progress.Completed, prev)
		}
		prev = v.Progress.Completed
	}
	if prev != 4 {
		t.Errorf("final progress %d, want 4", prev)
	}
}
