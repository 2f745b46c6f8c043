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
	"hbmsim/internal/trace"
)

// eventMeter is the event-counting reference for the Meter: the
// callbacks the Meter had before it read the simulator's ledger,
// counting into a Meter's instruments. It is not a CounterObserver, so
// the simulator sends it every event, cruising cores' serves and jumped
// ticks included.
type eventMeter struct{ m *Meter }

func (e eventMeter) OnQueue(model.CoreID, model.PageID, model.Tick) { e.m.misses.Inc() }

func (e eventMeter) OnGrant(_ model.CoreID, _ model.PageID, _, wait model.Tick) {
	e.m.grants.Inc()
	e.m.grantWait.Observe(float64(wait))
}

func (e eventMeter) OnServe(_ model.CoreID, _ model.PageID, _, response model.Tick) {
	e.m.serves.Inc()
	if response == 1 {
		e.m.hits.Inc()
	}
	e.m.response.Observe(float64(response))
}

func (e eventMeter) OnFetch(model.CoreID, model.PageID, model.Tick) { e.m.fetches.Inc() }

func (e eventMeter) OnEvict(model.PageID, model.Tick) { e.m.evictions.Inc() }

func (e eventMeter) OnRemap(model.Tick, []int32, []int32) { e.m.remaps.Inc() }

func (e eventMeter) OnTickEnd(_ model.Tick, depth, _ int) {
	e.m.ticks.Inc()
	e.m.queueDepth.Observe(float64(depth))
}

// meteredRun simulates ts with obs attached and returns the finished
// simulator.
func meteredRun(t *testing.T, cfg core.Config, ts [][]model.PageID, obs core.Observer) *core.Sim {
	t.Helper()
	s, err := core.New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	s.SetObserver(obs)
	for s.Step() {
	}
	return s
}

// exposition renders reg in the Prometheus text format.
func exposition(t *testing.T, reg *metrics.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMeterFoldMatchesReplay pins the Meter's ledger reading: across
// replacement policy x arbiter x far-memory backend, a Meter attached
// alone, which reads the ledger the simulator folds its counts into,
// leaves a /metrics exposition byte-identical to the event-counting
// reference fed every event tick by tick (with the jump and cruise
// counters, which no event carries, read off the metered simulator).
// Jumps or cruising must engage in every cell, or the comparison is
// vacuous.
func TestMeterFoldMatchesReplay(t *testing.T) {
	// 48 pages over 44 slots: evictions and contended ticks between
	// stretches in every cell, over several of the Meter's 1024-tick
	// updates.
	ts := testTraces(4, 12, 3000)
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
					ledgerReg, eventReg := metrics.NewRegistry(), metrics.NewRegistry()
					metered := meteredRun(t, cfg, ts, NewMeter(ledgerReg))
					ref := eventMeter{NewMeter(eventReg)}
					replayed := meteredRun(t, cfg, ts, ref)
					// No event carries the fast-forward and cruise counts,
					// and the metered run cruises where the event-observed
					// one steps per tick: read them off the metered Sim.
					ref.m.ffTicks.Add(metered.FastForwardedTicks())
					ref.m.ffStretches.Add(metered.FastForwardedStretches())
					ref.m.cruised.Add(metered.CruisedServes())
					if metered.FastForwardedTicks()+metered.CruisedServes() == 0 {
						t.Fatal("neither fast-forward nor cruising engaged; the comparison is vacuous")
					}
					if metered.Tick() < 3*1024 {
						t.Fatalf("run ended at tick %d, before the Meter's third update", metered.Tick())
					}
					if a, b := metered.Result(), replayed.Result(); !reflect.DeepEqual(a, b) {
						t.Fatalf("results diverge:\nmetered:  %+v\nreplayed: %+v", a, b)
					}
					if a, b := exposition(t, ledgerReg), exposition(t, eventReg); !bytes.Equal(a, b) {
						t.Fatalf("exposition differs:\n--- ledger\n%s\n--- events\n%s", a, b)
					}
				})
			}
		}
	}
}

// TestOnlyTheMeterReadsCounters pins which collectors read the ledger
// instead of events: the Meter only counts, so it is a CounterObserver
// and leaves no event observer installed; every collector that needs
// each page or each tick's timestamp receives events.
func TestOnlyTheMeterReadsCounters(t *testing.T) {
	reads := func(o core.Observer) bool { _, ok := o.(core.CounterObserver); return ok }
	if !reads(NewMeter(nil)) {
		t.Error("Meter does not read the ledger")
	}
	for name, o := range map[string]core.Observer{
		"EventLog":   NewEventLog(io.Discard),
		"Perfetto":   NewPerfetto(io.Discard, 1, 1),
		"OptTracker": NewOptTracker(nil, 1, 4, 1, 0),
		"Heatmap":    NewHeatmap(),
		"Timeline":   NewTimeline(0, 1, 1),
		"Watchdog":   NewStarvationWatchdog(10),
	} {
		if reads(o) {
			t.Errorf("%s reads the ledger, but it needs per-tick events", name)
		}
	}
}

// hitStretchTraces is core's BenchmarkSimHitStretch shape: p cores, each
// cycling a resident working set of span pages with a cold miss every
// period refs, so almost the whole run is contention-free stretches.
// Pages are renumbered densely, as generated workloads are, so the
// benchmark times New's one-pass path, not its renumbering copy.
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
	trace.RenumberAll(ts, ts)
	return ts
}

// TestMeterOnCountersAllocatesNothing: the Meter is a CounterObserver,
// so a metered simulation runs the bare step loop (core pins that a
// counter observer installs no event observer, and that a push allocates
// nothing), plus one OnCounters every 1024 ticks, which must not
// allocate either.
func TestMeterOnCountersAllocatesNothing(t *testing.T) {
	m := NewMeter(metrics.NewRegistry())
	var c core.Counters
	allocs := testing.AllocsPerRun(1000, func() {
		c.Ticks += 1024
		c.Serves += 3000
		c.Queued++
		c.QueueDepth.Buckets[3] += 1024
		c.QueueDepth.Sum += 7 * 1024
		c.Response.Buckets[40]++
		c.Response.Sum += 1 << 39
		m.OnCounters(&c)
	})
	if allocs != 0 {
		t.Fatalf("OnCounters allocates %v times per call", allocs)
	}
	if m.Ticks() != c.Ticks || m.Serves() != c.Serves {
		t.Fatalf("Meter published %d ticks and %d serves, ledger %d and %d", m.Ticks(), m.Serves(), c.Ticks, c.Serves)
	}
}

// BenchmarkSimHitStretchMeter is core's BenchmarkSimHitStretch with a
// Meter attached through NewMultiObserver, as `hbmsim -http` attaches
// it: the Meter reads the ledger, so the metered run is the bare step
// loop plus one OnCounters every 1024 ticks.
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
