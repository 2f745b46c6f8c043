package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/core"
	"hbmsim/internal/membackend"
	"hbmsim/internal/metrics"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// replayOnly hides an observer's OnStretch, so the simulator replays
// every fast-forwarded stretch to it tick by tick.
type replayOnly struct{ core.Observer }

// meteredRun simulates ts with obs attached and returns the Result, the
// registry's Prometheus exposition, and the fast-forwarded tick count.
func meteredRun(t *testing.T, cfg core.Config, ts [][]model.PageID, reg *metrics.Registry, obs core.Observer) (*core.Result, []byte, uint64) {
	t.Helper()
	s, err := core.New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	s.SetObserver(obs)
	for s.Step() {
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return s.Result(), buf.Bytes(), s.FastForwardedTicks()
}

// TestMeterFoldMatchesReplay pins the Meter's fold: across replacement
// policy x arbiter x far-memory backend, a Meter folding fast-forwarded
// stretches leaves the registry's exposition byte-identical to the same
// Meter receiving every stretch tick by tick — and fast-forward must
// engage in every cell, or the comparison is vacuous.
func TestMeterFoldMatchesReplay(t *testing.T) {
	// 48 pages over 44 slots: evictions and contended ticks between
	// stretches in every cell.
	ts := testTraces(4, 12, 1000)
	backends := map[string]membackend.Config{
		"reference": {},
		"bandwidth": {Kind: membackend.Bandwidth},
		"hybrid":    {Kind: membackend.Hybrid, FastSlots: 8},
	}
	for _, pol := range append(replacement.Kinds(), replacement.Belady) {
		for _, arb := range arbiter.Kinds() {
			for name, be := range backends {
				cfg := core.Config{HBMSlots: 44, Channels: 2, Arbiter: arb, Replacement: pol,
					Permuter: arbiter.Dynamic, RemapPeriod: 64, Seed: 5, Backend: be}
				t.Run(fmt.Sprintf("%s/%s/%s", pol, arb, name), func(t *testing.T) {
					foldReg, replayReg := metrics.NewRegistry(), metrics.NewRegistry()
					folded, foldText, ff := meteredRun(t, cfg, ts, foldReg,
						core.NewMultiObserver(NewMeter(foldReg)))
					replayed, replayText, _ := meteredRun(t, cfg, ts, replayReg,
						replayOnly{NewMeter(replayReg)})
					if ff == 0 {
						t.Fatal("fast-forward never engaged; the comparison is vacuous")
					}
					if !reflect.DeepEqual(folded, replayed) {
						t.Fatalf("results diverge:\nfolded:   %+v\nreplayed: %+v", folded, replayed)
					}
					if !bytes.Equal(foldText, replayText) {
						t.Fatalf("exposition differs:\n--- folded\n%s\n--- replayed\n%s", foldText, replayText)
					}
				})
			}
		}
	}
}

// TestOnlyCountingCollectorsFold pins which collectors fold stretches:
// the Meter counts, so it folds; every collector that needs each page or
// each tick's timestamp replays.
func TestOnlyCountingCollectorsFold(t *testing.T) {
	folds := func(o core.Observer) bool { _, ok := o.(core.StretchObserver); return ok }
	if !folds(NewMeter(nil)) {
		t.Error("Meter does not fold stretches")
	}
	for name, o := range map[string]core.Observer{
		"EventLog":   NewEventLog(io.Discard),
		"Perfetto":   NewPerfetto(io.Discard, 1, 1),
		"OptTracker": NewOptTracker(nil, 1, 4, 1, 0),
		"Heatmap":    NewHeatmap(),
		"Timeline":   NewTimeline(0, 1, 1),
		"Watchdog":   NewStarvationWatchdog(10),
	} {
		if folds(o) {
			t.Errorf("%s folds stretches, but it needs per-tick events", name)
		}
	}
}

// hitStretchTraces is core's BenchmarkSimHitStretch shape: p cores, each
// cycling a resident working set of span pages with a cold miss every
// period refs, so almost the whole run is contention-free stretches.
func hitStretchTraces(p, refsPerCore, span, period int) [][]model.PageID {
	ts := make([][]model.PageID, p)
	for i := range ts {
		tr := make([]model.PageID, refsPerCore)
		pos, extra := 0, span
		for j := range tr {
			if j%period == period-1 {
				tr[j] = model.PageID(i*100000 + extra)
				extra++
				continue
			}
			tr[j] = model.PageID(i*100000 + pos)
			pos = (pos + 1) % span
		}
		ts[i] = tr
	}
	return ts
}

// TestMeteredHitStretchAllocatesNothing: once warmed up, a Step of a
// metered hit-stretch run — slow tick or folded stretch — allocates
// nothing.
func TestMeteredHitStretchAllocatesNothing(t *testing.T) {
	ts := hitStretchTraces(8, 65536, 48, 2048)
	s, err := core.New(core.Config{HBMSlots: 4096, Channels: 4}, ts)
	if err != nil {
		t.Fatal(err)
	}
	s.SetObserver(core.NewMultiObserver(NewMeter(metrics.NewRegistry())))
	// Warm up past the first full-length stretch, which sizes the touch
	// scratch. AllocsPerRun then warms up once more and measures a single
	// call, so the count is exact rather than averaged.
	for s.FastForwardedStretches() < 2 {
		s.Step()
	}
	const steps = 300
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			if !s.Step() {
				t.Fatal("run finished during the measurement")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations in %d metered Steps, want 0", allocs, steps)
	}
	if s.FastForwardedStretches() < 10 {
		t.Fatalf("only %d stretches folded; the check is vacuous", s.FastForwardedStretches())
	}
}

// BenchmarkSimHitStretchMeter is core's BenchmarkSimHitStretch with a
// Meter attached through NewMultiObserver, as `hbmsim -http` attaches
// it: the Meter folds stretches, so the observed run keeps the batched
// path.
func BenchmarkSimHitStretchMeter(b *testing.B) {
	for _, p := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			ts := hitStretchTraces(p, 65536, 48, 2048)
			cfg := core.Config{HBMSlots: 4096, Channels: 4}
			refs := uint64(p) * 65536
			reg := metrics.NewRegistry()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := core.New(cfg, ts)
				if err != nil {
					b.Fatal(err)
				}
				s.SetObserver(core.NewMultiObserver(NewMeter(reg)))
				for s.Step() {
				}
				if s.Result().TotalRefs != refs {
					b.Fatal("incomplete run")
				}
			}
			b.ReportMetric(float64(refs)*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}
