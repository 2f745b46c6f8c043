package main

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"hbmsim"

	"hbmsim/internal/introspect"
)

func TestGenerateAllKinds(t *testing.T) {
	for _, gen := range []string{"sort", "spgemm", "densemm", "stream", "adversarial", "uniform", "zipf"} {
		wl, err := generate(gen, 2, 64, 64, 1)
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		if wl.TotalRefs() == 0 {
			t.Fatalf("%s: empty workload", gen)
		}
	}
	if _, err := generate("bogus", 2, 64, 64, 1); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

func TestLoadWorkloadModes(t *testing.T) {
	if _, err := loadWorkload("", "", 1, 1, 64, 1); err == nil {
		t.Fatal("neither -trace nor -gen should be an error")
	}
	if _, err := loadWorkload("x.hbmt", "sort", 1, 1, 64, 1); err == nil {
		t.Fatal("both -trace and -gen should be an error")
	}
	wl, err := loadWorkload("", "adversarial", 2, 8, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.hbmt")
	if err := hbmsim.WriteWorkload(path, wl); err != nil {
		t.Fatal(err)
	}
	got, err := loadWorkload(path, "", 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalRefs() != wl.TotalRefs() {
		t.Fatal("trace file round trip lost refs")
	}
}

// TestRunObservedWithMetricsMatchesPlain: the -http telemetry (Meter and
// /progress) leaves the Result bit-identical to the plain path, the
// registry fills with simulator counters, and /progress ends at
// completion. On the hit-stretch shape — dense MM at half its unique
// pages — the folding Meter must also keep exactly the bare simulator's
// jumped ticks.
func TestRunObservedWithMetricsMatchesPlain(t *testing.T) {
	for _, tc := range []struct {
		name        string
		gen         string
		cores, size int
		cfg         hbmsim.Config
		wantFF      bool
	}{
		{name: "spgemm", gen: "spgemm", cores: 4, size: 48,
			cfg: hbmsim.Config{HBMSlots: 64, Channels: 1, Arbiter: hbmsim.ArbiterPriority,
				Replacement: hbmsim.ReplaceLRU, Permuter: hbmsim.PermuterDynamic, RemapPeriod: 128, Seed: 1}},
		{name: "densemm-half", gen: "densemm", cores: 4, size: 24,
			cfg: hbmsim.Config{Channels: 1, Seed: 1}, wantFF: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl, err := generate(tc.gen, tc.cores, tc.size, 64, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			if cfg.HBMSlots == 0 {
				cfg.HBMSlots = wl.UniquePages() / 2
			}

			bare, err := hbmsim.NewSim(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			for bare.Step() {
			}
			plain := bare.Result()

			opts := telemetryOptions{
				metrics:   hbmsim.NewMetricsRegistry(),
				progress:  &introspect.Progress{},
				totalRefs: wl.TotalRefs(),
			}
			observed, _, rs, err := runObserved(context.Background(), cfg, wl, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, observed) {
				t.Fatalf("live metrics changed the result:\nplain:    %+v\nobserved: %+v", plain, observed)
			}
			if got := opts.metrics.Counter("hbmsim_serves_total", "").Value(); got != observed.TotalRefs {
				t.Fatalf("hbmsim_serves_total = %d, want %d", got, observed.TotalRefs)
			}
			if rs.ffTicks != bare.FastForwardedTicks() {
				t.Fatalf("observed run fast-forwarded %d ticks, bare run %d", rs.ffTicks, bare.FastForwardedTicks())
			}
			if tc.wantFF && rs.ffTicks == 0 {
				t.Fatal("fast-forward never engaged on the hit-stretch shape")
			}
			snap := opts.progress.Snapshot()
			if snap.Phase != "simulate" || snap.Completed != int(wl.TotalRefs()) || snap.Percent != 100 {
				t.Fatalf("final progress = %+v", snap)
			}
		})
	}
}

// TestFlagZeroValuesTakeSpecDefaults: the flags fill the same specs a
// job does, so -q 0 and -page 0 take the spec defaults (one far channel,
// 64-byte pages) instead of being refused or falling through to a
// generator's own page size.
func TestFlagZeroValuesTakeSpecDefaults(t *testing.T) {
	args := []string{"-gen", "stream", "-cores", "2", "-size", "1000", "-k", "64", "-json"}
	want, err := runCLI(t, append(args, "-q", "1", "-page", "64")...)
	if err != nil {
		t.Fatalf("explicit defaults: %v\noutput:\n%s", err, want)
	}
	got, err := runCLI(t, append(args, "-q", "0", "-page", "0")...)
	if err != nil {
		t.Fatalf("zero values: %v\noutput:\n%s", err, got)
	}
	if got != want {
		t.Fatalf("-q 0 -page 0 ran a different simulation:\n%s\nwant\n%s", got, want)
	}
}
