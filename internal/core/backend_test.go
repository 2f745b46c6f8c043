package core

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/membackend"
	"hbmsim/internal/replacement"
)

// backendConfigs returns one representative kernel configuration per
// registered backend.
func backendConfigs() map[string]Config {
	base := Config{
		HBMSlots: 16, Channels: 2,
		Arbiter: arbiter.Priority, Permuter: arbiter.Dynamic,
		RemapPeriod: 25, Seed: 9, CollectHistogram: true,
	}
	ref := base
	bw := base
	bw.Backend = membackend.Config{Kind: membackend.Bandwidth}
	hy := base
	hy.Backend = membackend.Config{Kind: membackend.Hybrid, FastSlots: 8}
	return map[string]Config{"reference": ref, "bandwidth": bw, "hybrid": hy}
}

// TestBackendRunsComplete runs every backend end-to-end on the same
// contended workload and sanity-checks the shape of the results: all
// references served, and the slower far-memory models must cost ticks
// relative to the reference model, not save them.
func TestBackendRunsComplete(t *testing.T) {
	ts := checkpointWorkload()
	results := make(map[string]*Result)
	for name, cfg := range backendConfigs() {
		res, err := Run(cfg, ts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var refs uint64
		for _, tr := range ts {
			refs += uint64(len(tr))
		}
		if res.TotalRefs != refs || res.Truncated {
			t.Fatalf("%s: incomplete run: %+v", name, res)
		}
		results[name] = res
	}
	if results["bandwidth"].Makespan <= results["reference"].Makespan {
		t.Errorf("bandwidth makespan %d not above reference %d", results["bandwidth"].Makespan, results["reference"].Makespan)
	}
	if results["hybrid"].Makespan <= results["reference"].Makespan {
		t.Errorf("hybrid makespan %d not above reference %d", results["hybrid"].Makespan, results["reference"].Makespan)
	}
}

// TestBackendCheckpointRoundTrip pins, for every backend, that a run
// interrupted by Checkpoint/Resume reproduces the uninterrupted run's
// Result and event stream exactly, and that a resumed simulator's next
// Checkpoint is byte-identical to one taken from the uninterrupted run
// at the same tick.
func TestBackendCheckpointRoundTrip(t *testing.T) {
	ts := checkpointWorkload()
	for name, cfg := range backendConfigs() {
		t.Run(name, func(t *testing.T) {
			// Uninterrupted run under a recorder.
			whole, err := New(cfg, ts)
			if err != nil {
				t.Fatal(err)
			}
			wholeRec := &streamRecorder{}
			whole.SetObserver(wholeRec)
			for whole.Tick() < 40 && whole.Step() {
			}
			var wholeSnap bytes.Buffer
			if err := whole.Checkpoint(&wholeSnap); err != nil {
				t.Fatal(err)
			}
			for whole.Step() {
			}

			// Interrupted run: step to the same tick, checkpoint, resume
			// into a fresh simulator, finish there.
			head, err := New(cfg, ts)
			if err != nil {
				t.Fatal(err)
			}
			headRec := &streamRecorder{}
			head.SetObserver(headRec)
			for head.Tick() < 40 && head.Step() {
			}
			var snap bytes.Buffer
			if err := head.Checkpoint(&snap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap.Bytes(), wholeSnap.Bytes()) {
				t.Fatal("checkpoints at the same tick differ between runs")
			}
			tail, err := Resume(bytes.NewReader(snap.Bytes()), cfg, ts)
			if err != nil {
				t.Fatal(err)
			}
			tailRec := &streamRecorder{}
			tail.SetObserver(tailRec)
			// A re-checkpoint of the freshly resumed simulator must be
			// byte-identical to the snapshot it came from.
			var again bytes.Buffer
			if err := tail.Checkpoint(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap.Bytes(), again.Bytes()) {
				t.Fatal("resume + re-checkpoint is not byte-identical")
			}
			for tail.Step() {
			}

			if !reflect.DeepEqual(whole.Result(), tail.Result()) {
				t.Errorf("resumed result diverged:\n%+v\nvs\n%+v", tail.Result(), whole.Result())
			}
			joined := append(append([]string{}, headRec.lines...), tailRec.lines...)
			if len(joined) != len(wholeRec.lines) {
				t.Fatalf("event count %d after resume, %d uninterrupted", len(joined), len(wholeRec.lines))
			}
			for i := range joined {
				if joined[i] != wholeRec.lines[i] {
					t.Fatalf("event %d diverged: %q vs %q", i, joined[i], wholeRec.lines[i])
				}
			}
		})
	}
}

// TestBackendFastForwardInFlight pins the NextEventTick integration: on
// a hit-heavy workload a slow backend holds transfers in flight for many
// ticks while other cores keep hitting, and an observed cruising run
// must both jump there and stay bit-identical to single-tick stepping.
func TestBackendFastForwardInFlight(t *testing.T) {
	ts := hitHeavyWorkload(3, 400, 5)
	for name, cfg := range backendConfigs() {
		cfg.HBMSlots = 32
		t.Run(name, func(t *testing.T) {
			ff, _, ffRec, plainRec, ffRes, plainRes := runBoth(t, cfg, ts)
			if !reflect.DeepEqual(ffRes, plainRes) {
				t.Errorf("fast-forward result diverged from single-tick run")
			}
			if len(ffRec.lines) != len(plainRec.lines) {
				t.Fatalf("event count %d fast-forwarded, %d plain", len(ffRec.lines), len(plainRec.lines))
			}
			for i := range ffRec.lines {
				if ffRec.lines[i] != plainRec.lines[i] {
					t.Fatalf("event %d diverged: %q vs %q", i, ffRec.lines[i], plainRec.lines[i])
				}
			}
			if ff.FastForwardedTicks() == 0 {
				t.Errorf("fast-forward never engaged on a hit-heavy workload")
			}
		})
	}
}

// TestBackendLegacySnapshotRejected pins the version gate: a version-2
// snapshot resumes only under the reference backend.
func TestBackendLegacySnapshotRejected(t *testing.T) {
	cfg := backendConfigs()["bandwidth"]
	sim, err := New(cfg, checkpointWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for sim.Tick() < 20 && sim.Step() {
	}
	var snap bytes.Buffer
	if err := sim.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	// Current-version snapshots round-trip for non-reference backends…
	if _, err := Resume(bytes.NewReader(snap.Bytes()), cfg, checkpointWorkload()); err != nil {
		t.Fatal(err)
	}
	// …but the committed v2 fixture must be refused under them (it holds
	// only reference-backend state). The fingerprint would also mismatch;
	// the version gate must fire first with a version-specific error.
	raw, err := os.ReadFile(goldenSnapPath)
	if err != nil {
		t.Fatal(err)
	}
	legacy := goldenSnapConfig()
	legacy.Backend = membackend.Config{Kind: membackend.Bandwidth}
	if _, err := Resume(bytes.NewReader(raw), legacy, checkpointWorkload()); err == nil {
		t.Fatal("v2 snapshot resumed under a non-reference backend")
	}
}

// TestBackendConfigHashCompat pins fingerprint compatibility: adding the
// backend field must not move the hash of a defaulted (reference)
// config, while non-reference backends must move it.
func TestBackendConfigHashCompat(t *testing.T) {
	base := Config{HBMSlots: 8, Channels: 2, Replacement: replacement.LRU}
	explicit := base
	explicit.Backend = membackend.Config{Kind: membackend.Reference}
	if ConfigHash(base) != ConfigHash(explicit) {
		t.Error("explicit reference backend changed the config hash")
	}
	bw := base
	bw.Backend = membackend.Config{Kind: membackend.Bandwidth}
	if ConfigHash(bw) == ConfigHash(base) {
		t.Error("bandwidth backend did not change the config hash")
	}
	bw2 := bw
	bw2.Backend.BytesPerTick = 32
	if ConfigHash(bw2) == ConfigHash(bw) {
		t.Error("backend parameter change did not change the config hash")
	}
	bw3 := bw
	bw3.Backend.PageBytes = 64 // the documented default, spelled out
	if ConfigHash(bw3) != ConfigHash(bw) {
		t.Error("defaulted and explicit backend parameters hash differently")
	}
}
