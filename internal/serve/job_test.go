package serve

import (
	"strings"
	"testing"

	"hbmsim/internal/membackend"
	"hbmsim/internal/replacement"
)

func TestWorkloadSpecBuild(t *testing.T) {
	for _, gen := range []string{"sort", "spgemm", "stream", "bfs", "adversarial", "uniform", "zipf"} {
		wl, err := (WorkloadSpec{Gen: gen, Cores: 2, Size: 400, Seed: 1}).Build()
		if err != nil {
			t.Errorf("%s: %v", gen, err)
			continue
		}
		if wl.Cores() != 2 {
			t.Errorf("%s: %d cores, want 2", gen, wl.Cores())
		}
	}
	if _, err := (WorkloadSpec{Gen: "nope", Cores: 1}).Build(); err == nil {
		t.Error("unknown generator accepted")
	}
	if _, err := (WorkloadSpec{Gen: "uniform"}).Build(); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := (WorkloadSpec{Cores: 1}).Build(); err == nil {
		t.Error("empty generator accepted")
	}
}

func TestWorkloadSpecDeterministic(t *testing.T) {
	spec := WorkloadSpec{Gen: "zipf", Cores: 3, Size: 500, Seed: 42}
	a, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := spec.Build()
	if len(a.Traces) != len(b.Traces) {
		t.Fatal("trace counts differ")
	}
	for i := range a.Traces {
		for j := range a.Traces[i] {
			if a.Traces[i][j] != b.Traces[i][j] {
				t.Fatalf("trace %d diverges at %d — generators must be deterministic in (spec, seed)", i, j)
			}
		}
	}
}

func TestConfigSpecValidation(t *testing.T) {
	if _, err := (ConfigSpec{HBMSlots: 8, Arbiter: "bogus"}).Config(); err == nil ||
		!strings.Contains(err.Error(), "unknown arbiter") {
		t.Errorf("bad arbiter: %v", err)
	}
	if _, err := (ConfigSpec{HBMSlots: 8, Replacement: "bogus"}).Config(); err == nil {
		t.Error("bad replacement accepted")
	}
	if _, err := (ConfigSpec{HBMSlots: 8, Mapping: "bogus"}).Config(); err == nil {
		t.Error("bad mapping accepted")
	}
	if _, err := (ConfigSpec{HBMSlots: 8, Permuter: "bogus"}).Config(); err == nil {
		t.Error("bad permuter accepted")
	}
	cfg, err := (ConfigSpec{HBMSlots: 8}).Config()
	if err != nil {
		t.Fatalf("minimal spec: %v", err)
	}
	if cfg.Channels != 1 {
		t.Errorf("channels default %d, want 1 (matching hbmsim -q)", cfg.Channels)
	}
	if cfg, err := (ConfigSpec{HBMSlots: 8, Replacement: "belady"}).Config(); err != nil || cfg.Replacement != replacement.Belady {
		t.Errorf("belady replacement: %q, %v", cfg.Replacement, err)
	}
}

// TestConfigSpecBackend covers the backend fields: named kinds parse with
// their key=value parameters, bad kinds and parameters are refused, and a
// spec with no backend stays on the reference model.
func TestConfigSpecBackend(t *testing.T) {
	cfg, err := (ConfigSpec{HBMSlots: 8, Backend: "bandwidth", BackendParams: "bytes_per_tick=8,latency_ticks=9"}).Config()
	if err != nil {
		t.Fatalf("bandwidth spec: %v", err)
	}
	if cfg.Backend.Kind != membackend.Bandwidth || cfg.Backend.BytesPerTick != 8 || cfg.Backend.LatencyTicks != 9 {
		t.Errorf("backend config = %+v", cfg.Backend)
	}
	if _, err := (ConfigSpec{HBMSlots: 8, Backend: "bogus"}).Config(); err == nil ||
		!strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("bad backend: %v", err)
	}
	if _, err := (ConfigSpec{HBMSlots: 8, Backend: "hybrid", BackendParams: "warp=9"}).Config(); err == nil {
		t.Error("bad backend parameter accepted")
	}
	// Parameters without a kind parameterise the reference model — refused
	// keys still error rather than being silently dropped.
	if _, err := (ConfigSpec{HBMSlots: 8, BackendParams: "fast_slots=-1"}).Config(); err == nil {
		t.Error("invalid parameter without a kind accepted")
	}
	cfg, err = (ConfigSpec{HBMSlots: 8}).Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Backend.Kind != "" {
		t.Errorf("spec without backend set kind %q", cfg.Backend.Kind)
	}
}

// TestFingerprintSensitivity pins that the identity hash moves with
// every input that affects results — it is what stops a recovered job
// from replaying journal rows that belong to a different job.
func TestFingerprintSensitivity(t *testing.T) {
	base := testSweepSpec(2)
	wl, err := base.Workload.Build()
	if err != nil {
		t.Fatal(err)
	}
	fp0, err := base.Fingerprint(wl)
	if err != nil {
		t.Fatal(err)
	}
	if fp1, _ := base.Fingerprint(wl); fp1 != fp0 {
		t.Fatal("fingerprint not stable across calls")
	}

	mutations := map[string]func(*Spec){
		"config":     func(s *Spec) { s.Points[0].Config.HBMSlots++ },
		"backend":    func(s *Spec) { s.Points[0].Config.Backend = "bandwidth" },
		"point name": func(s *Spec) { s.Points[1].Name = "renamed" },
		"point set":  func(s *Spec) { s.Points = s.Points[:1] },
	}
	for name, mutate := range mutations {
		m := testSweepSpec(2)
		mutate(&m)
		fp, err := m.Fingerprint(wl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fp == fp0 {
			t.Errorf("%s change did not move the fingerprint", name)
		}
	}

	// A different workload moves it too.
	other := testSweepSpec(2)
	otherWl, _ := (WorkloadSpec{Gen: "zipf", Cores: 4, Size: 3000, Seed: 999}).Build()
	if fp, _ := other.Fingerprint(otherWl); fp == fp0 {
		t.Error("workload change did not move the fingerprint")
	}

	// Experiment jobs fingerprint their options (no workload to hash).
	e1 := Spec{Kind: KindExperiment, Experiment: "fig3"}
	e2 := Spec{Kind: KindExperiment, Experiment: "fig3", Full: true}
	f1, err := e1.Fingerprint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if f2, _ := e2.Fingerprint(nil); f1 == f2 {
		t.Error("experiment option change did not move the fingerprint")
	}
}

func TestSpecPointName(t *testing.T) {
	s := Spec{Points: []Point{{Name: "alpha"}, {}}}
	if s.PointName(0) != "alpha" || s.PointName(1) != "point-1" {
		t.Errorf("point names: %q, %q", s.PointName(0), s.PointName(1))
	}
}

func TestStateTerminal(t *testing.T) {
	for st, want := range map[State]bool{
		StateQueued: false, StateRunning: false,
		StateDone: true, StateFailed: true, StateCancelled: true,
	} {
		if st.Terminal() != want {
			t.Errorf("%s.Terminal() = %v", st, st.Terminal())
		}
	}
}
