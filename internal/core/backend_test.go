package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/membackend"
	"hbmsim/internal/model"
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

// TestBackendSnapshotBytesPinned pins every backend's snapshot layout
// and results against recorded digests, so a change to a backend's
// encoding that is consistent with itself — which
// TestBackendCheckpointRoundTrip accepts — still fails here. Each run
// (p=6, k=60, q=2, a contended workload; fetch latency 3 so reference
// transfers sit in flight) checkpoints every 97 ticks;
// its digest is the SHA-256 over the SHA-256 of every snapshot in tick
// order, then of the final Result's JSON.
func TestBackendSnapshotBytesPinned(t *testing.T) {
	const every = 97
	ts := benchWorkload(6, 20, 800)
	backends := []struct {
		name string
		cfg  membackend.Config
	}{
		{"reference", membackend.Config{}},
		{"bandwidth", membackend.Config{Kind: membackend.Bandwidth}},
		{"bandwidth-slow", membackend.Config{Kind: membackend.Bandwidth, BytesPerTick: 8, LatencyTicks: 9}},
		{"hybrid", membackend.Config{Kind: membackend.Hybrid}},
		{"hybrid-fast8", membackend.Config{Kind: membackend.Hybrid, FastSlots: 8}},
	}
	// Recorded before the backends shared one in-flight queue.
	want := map[string]string{
		"reference/fifo":          "046585538cf1f5d62e1ab60be4f5dfc23fc443e067bc2c1d4a944d6964d00b9e",
		"reference/priority":      "2b5f21a5249dc32c5232ac3bf0e959c2a61ecb11aa6a7c4fa504078124969e13",
		"bandwidth/fifo":          "9e4cd3fb0353ec3515f8dfb03379b5fe9fe009ccdb3fd4523d74bd61ff7db81c",
		"bandwidth/priority":      "008557ad902d616c5c33b0985c6be107b0cb6bcde8099c909a05e97ac1b60880",
		"bandwidth-slow/fifo":     "b43d706ead48316a386026aacefa680dfcbd96809354f2423cfc70fd51d4699b",
		"bandwidth-slow/priority": "72a5019ef03b33e2ab33717c32828a1276c09775b4737a50c2a439905ad1ad6e",
		"hybrid/fifo":             "42de7c45579767466f003ea4766f41d943fdc2691c6836aacf7f59e56af8fd71",
		"hybrid/priority":         "0622cf938313171ca25ffd4792a9277c7caf62601564272f3a82e01155cb5305",
		"hybrid-fast8/fifo":       "de44b8e7ddb58b72cd007b03a29dde7128af4b3ce98a6b30b67620e6e62451f0",
		"hybrid-fast8/priority":   "0d8c957fc0cd2ccad3afe232192a0d06ce71a67c7123df337f08755fef957ddf",
	}
	for _, be := range backends {
		for _, arb := range []arbiter.Kind{arbiter.FIFO, arbiter.Priority} {
			name := be.name + "/" + string(arb)
			t.Run(name, func(t *testing.T) {
				cfg := Config{HBMSlots: 60, Channels: 2, FetchLatency: 3, Arbiter: arb, Seed: 5, Backend: be.cfg}
				if arb == arbiter.Priority {
					cfg.Permuter, cfg.RemapPeriod = arbiter.Dynamic, 50
				}
				s, err := New(cfg, ts)
				if err != nil {
					t.Fatal(err)
				}
				s.SetBoundary(every)
				ticks, snaps := snapshotAtBoundaries(t, s, every)
				if len(snaps) < 10 {
					t.Fatalf("only %d snapshots; the run is too short to pin in-flight state", len(snaps))
				}
				res, err := json.Marshal(s.Result())
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for _, b := range append(snaps, res) {
					sum := sha256.Sum256(b)
					h.Write(sum[:])
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
					t.Errorf("digest over %d snapshots (last at tick %d) and the Result = %s, want %s",
						len(snaps), ticks[len(ticks)-1], got, want[name])
				}
			})
		}
	}
}

// TestBackendQueuesSizedByCores pins that construction sizes the
// backend's in-flight queue and the kernel's landing buffer by the core
// count rather than by the backend's MaxInFlight: a core has at most one
// fetch outstanding. One 3-reference core with q=64 and each backend at
// its 65536-tick parameter bound (MaxInFlight of 64x65536 transfers or
// more) must run in under 1 MB of allocation.
func TestBackendQueuesSizedByCores(t *testing.T) {
	ts := [][]model.PageID{{0, 1, 2}}
	for name, cfg := range map[string]Config{
		"reference": {FetchLatency: 65536},
		"bandwidth": {Backend: membackend.Config{Kind: membackend.Bandwidth, LatencyTicks: 65536}},
		"hybrid":    {Backend: membackend.Config{Kind: membackend.Hybrid, SlowReadTicks: 65536}},
	} {
		cfg.HBMSlots, cfg.Channels = 64, 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg, ts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.TotalRefs != 3 || res.Truncated {
			t.Fatalf("%s: incomplete run: %+v", name, res)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: Run allocated %d bytes, want under 1 MiB", name, got)
		}
	}
}
