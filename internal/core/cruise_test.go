package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/membackend"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// cruiseWorkload builds p cores that each dwell on a page for a few
// references before moving to the next of span working pages, with rare
// far jumps to cold pages: long verified hit runs for cruises, and enough
// distinct pages that evictions keep cutting them.
func cruiseWorkload(p, refs, span int, seed uint64) [][]model.PageID {
	ts := make([][]model.PageID, p)
	for c := range ts {
		tr := make([]model.PageID, refs)
		pos := 0
		for i := range tr {
			seed = seed*6364136223846793005 + 1442695040888963407
			switch {
			case seed%61 == 0:
				pos = int(seed>>33) % (span * 3)
			case seed%3 == 0:
				pos = (pos + 1) % span
			}
			tr[i] = model.PageID(c*10000 + pos)
		}
		ts[c] = tr
	}
	return ts
}

// runSnapshots steps s to completion under SetBoundary(every),
// checkpointing at every boundary tick (never, for zero).
func runSnapshots(t *testing.T, s *Sim, every model.Tick) (ticks []model.Tick, snaps [][]byte) {
	t.Helper()
	if every == 0 {
		for s.Step() {
		}
		return nil, nil
	}
	s.SetBoundary(every)
	return snapshotAtBoundaries(t, s, every)
}

// workLedger is the ledger with the counters that tell steppers apart
// (fast-forwarded or jumped ticks, cruised serves) zeroed.
func workLedger(s *Sim) Counters {
	c := *s.counters()
	c.FFTicks, c.FFStretches, c.Cruised = 0, 0, 0
	return c
}

// checkCruise runs cfg on ts twice, per tick (noFF) and with no event
// observer (cruising unless the configuration forbids it), checkpointing
// both at every multiple of every, and requires identical Results,
// final ticks, ledgers, and byte-identical checkpoints at every boundary
// and at the end. It returns the cruising simulator.
func checkCruise(t *testing.T, cfg Config, ts [][]model.PageID, every model.Tick) *Sim {
	t.Helper()
	plain, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	plain.noFF = true
	cruising, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	plainTicks, plainSnaps := runSnapshots(t, plain, every)
	cruiseTicks, cruiseSnaps := runSnapshots(t, cruising, every)
	if a, b := cruising.Tick(), plain.Tick(); a != b {
		t.Fatalf("cruising run ended at tick %d, per-tick run at %d", a, b)
	}
	if a, b := cruising.Result(), plain.Result(); !reflect.DeepEqual(a, b) {
		t.Fatalf("results diverge:\ncruising: %+v\nper-tick: %+v", a, b)
	}
	if a, b := workLedger(cruising), workLedger(plain); a != b {
		t.Fatalf("ledgers diverge:\ncruising: %+v\nper-tick: %+v", a, b)
	}
	if !reflect.DeepEqual(cruiseTicks, plainTicks) {
		t.Fatalf("cruising run checkpointed at ticks %v, per-tick run at %v", cruiseTicks, plainTicks)
	}
	for i := range plainSnaps {
		if !bytes.Equal(cruiseSnaps[i], plainSnaps[i]) {
			t.Fatalf("checkpoint at tick %d differs", plainTicks[i])
		}
	}
	var a, b bytes.Buffer
	if err := cruising.Checkpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := plain.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("final checkpoints differ")
	}
	return cruising
}

// TestCruiseDifferential is the gate on cruising: across replacement x
// arbiter x mapping x backend, with checkpoints every 7 or 1024 ticks or
// none, the cruising run must match the per-tick run in Results, final
// tick, ledger and every checkpoint byte. A wrong LRU victim that is
// never reused leaves Results unchanged, so the checkpoints carry the
// store's order. Every cell must cruise (the engagement floor), Belady
// included.
func TestCruiseDifferential(t *testing.T) {
	ts := cruiseWorkload(4, 700, 6, 3)
	backends := map[string]membackend.Config{
		"reference": {},
		"bandwidth": {Kind: membackend.Bandwidth},
		"hybrid":    {Kind: membackend.Hybrid, FastSlots: 4},
	}
	for _, mapping := range Mappings() {
		policies := append(replacement.Kinds(), replacement.Belady)
		if mapping == MappingDirect {
			policies = policies[:1] // the store ignores the policy
		}
		for _, pol := range policies {
			for _, arb := range arbiter.Kinds() {
				for name, be := range backends {
					for _, every := range []model.Tick{0, 7, 1024} {
						cfg := Config{HBMSlots: 14, Channels: 2, Arbiter: arb, Replacement: pol,
							Mapping: mapping, Permuter: arbiter.Dynamic, RemapPeriod: 50, Seed: 9,
							Backend: be, CollectHistogram: true}
						t.Run(fmt.Sprintf("%s/%s/%s/%s/every=%d", mapping, pol, arb, name, every), func(t *testing.T) {
							s := checkCruise(t, cfg, ts, every)
							if s.counters().Cruised == 0 {
								t.Fatal("nothing cruised on a contended cell; the comparison is vacuous")
							}
						})
					}
				}
			}
		}
	}
}

// TestCruiseHugeTickCap pins that no tick cap stops a run cruising:
// LRU's recency keys count from the last flush, not from tick 0. Under a
// cap near the int64 limit every policy, LRU included, cruises
// bit-identically to per-tick stepping with a checkpoint every 64 ticks
// (each starts an epoch), and a run resumed from a mid-run snapshot
// starts its epoch at the restored tick and ends as the uninterrupted
// run does.
func TestCruiseHugeTickCap(t *testing.T) {
	ts := cruiseWorkload(4, 700, 6, 3)
	for _, pol := range append(replacement.Kinds(), replacement.Belady) {
		cfg := Config{HBMSlots: 14, Channels: 2, Replacement: pol, MaxTicks: 1 << 62, Seed: 9}
		s := checkCruise(t, cfg, ts, 64)
		if s.counters().Cruised == 0 {
			t.Fatalf("%s: no serve cruised under a tick cap of 2^62", pol)
		}
		mid, err := New(cfg, ts)
		if err != nil {
			t.Fatal(err)
		}
		for mid.Tick() < s.Tick()/2 && mid.Step() {
		}
		var snap bytes.Buffer
		if err := mid.Checkpoint(&snap); err != nil {
			t.Fatal(err)
		}
		r, err := Resume(&snap, cfg, ts)
		if err != nil {
			t.Fatal(err)
		}
		if r.epoch != r.Tick() {
			t.Fatalf("%s: resumed at tick %d with recency keys counted from tick %d", pol, r.Tick(), r.epoch)
		}
		for r.Step() {
		}
		if r.counters().Cruised == 0 {
			t.Fatalf("%s: the run resumed at tick %d cruised no serve", pol, mid.Tick())
		}
		if a, b := r.Result(), s.Result(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: resumed run's result differs:\nresumed: %+v\n   want: %+v", pol, a, b)
		}
		var a, b bytes.Buffer
		if err := r.Checkpoint(&a); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: resumed run's final checkpoint differs", pol)
		}
	}
}

// TestCruiseKeyRoomFlush shrinks an LRU run's key room to a few ticks,
// so trimLogs keeps starting epochs. Every stepped tick must lie inside
// the room (a jump may carry the tick up to one cruise past it), every
// logged key inside the room plus one cruise's ticks, and the run must
// end as the per-tick run does, final checkpoint included.
func TestCruiseKeyRoomFlush(t *testing.T) {
	ts := cruiseWorkload(4, 700, 6, 3)
	cfg := Config{HBMSlots: 14, Channels: 2, Seed: 9}
	plain, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	plain.noFF = true
	s, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	s.keyRoom = 8
	bound := 2 * s.stride * uint64(s.keyRoom+cruiseMaxRun)
	for {
		jumped := s.FastForwardedTicks()
		more := s.Step()
		if s.keyed && s.FastForwardedTicks() == jumped && s.Tick()-s.epoch >= s.keyRoom {
			t.Fatalf("stepped tick %d lies %d ticks past the epoch, beyond the key room of %d", s.Tick(), s.Tick()-s.epoch, s.keyRoom)
		}
		for _, log := range [][]keyedPage{s.elog, s.pend} {
			for _, x := range log {
				if x.key >= bound {
					t.Fatalf("tick %d: key %d of page %d at or past %d (epoch %d)", s.Tick(), x.key, x.page, bound, s.epoch)
				}
			}
		}
		if !more {
			break
		}
	}
	for plain.Step() {
	}
	if s.counters().Cruised == 0 {
		t.Fatal("no serve cruised")
	}
	if a, b := s.Result(), plain.Result(); !reflect.DeepEqual(a, b) {
		t.Fatalf("results diverge:\ncruising: %+v\nper-tick: %+v", a, b)
	}
	var a, b bytes.Buffer
	if err := s.Checkpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := plain.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("final checkpoints differ")
	}
}

// TestCruiseDifferentialRandom compares cruising with per-tick stepping
// on random small configurations and workloads, cut off by tick caps,
// remaps and boundaries.
func TestCruiseDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cruised := 0
	for i := 0; i < 400; i++ {
		cfg := genConfig(rng)
		cfg.CollectHistogram = true
		if rng.Intn(4) == 0 {
			cfg.MaxTicks = model.Tick(20 + rng.Intn(200))
		}
		if rng.Intn(3) == 0 {
			cfg.Backend = membackend.Config{Kind: membackend.Kinds()[rng.Intn(3)]}
		}
		ts := cruiseWorkload(1+rng.Intn(5), rng.Intn(300), 1+rng.Intn(8), uint64(i))
		every := []model.Tick{0, 1, 5, 64}[rng.Intn(4)]
		if s := checkCruise(t, cfg, ts, every); s.counters().Cruised > 0 {
			cruised++
		}
	}
	if cruised < 100 {
		t.Fatalf("only %d of 400 random runs cruised", cruised)
	}
}

// TestCruiseCheckpointOffBoundary checkpoints a cruising run at ticks
// that are not boundary multiples, as an interrupted hbmsim run does,
// resumes each snapshot, and requires the resumed run to write the same
// later snapshots and reach the uninterrupted Result. Checkpoint must
// settle the running cruises first, or the snapshot misses their serves.
func TestCruiseCheckpointOffBoundary(t *testing.T) {
	const every = 64
	ts := cruiseWorkload(4, 900, 6, 11)
	for _, pol := range []replacement.Kind{replacement.LRU, replacement.FIFO, replacement.Clock} {
		t.Run(string(pol), func(t *testing.T) {
			cfg := Config{HBMSlots: 14, Channels: 2, Replacement: pol, Seed: 4, CollectHistogram: true}
			full, err := New(cfg, ts)
			if err != nil {
				t.Fatal(err)
			}
			wantTicks, want := runSnapshots(t, full, every)
			wantRes := full.Result()
			for _, at := range []model.Tick{37, 101, 333, 517} {
				s, err := New(cfg, ts)
				if err != nil {
					t.Fatal(err)
				}
				// Stop at the first tick from at on that is off the
				// boundary grid and has a cruise running.
				for (s.Tick() < at || s.Tick()%every == 0 || s.nCruising == 0) && s.Step() {
				}
				if s.nCruising == 0 {
					t.Fatalf("no cruise running from tick %d on; the snapshot settles nothing", at)
				}
				var snap bytes.Buffer
				if err := s.Checkpoint(&snap); err != nil {
					t.Fatal(err)
				}
				r, err := Resume(&snap, cfg, ts)
				if err != nil {
					t.Fatal(err)
				}
				gotTicks, got := runSnapshots(t, r, every)
				k := 0 // the uninterrupted run's first snapshot after the checkpoint
				for k < len(wantTicks) && wantTicks[k] <= s.Tick() {
					k++
				}
				if !reflect.DeepEqual(gotTicks, wantTicks[k:]) {
					t.Fatalf("resumed from tick %d: snapshots at ticks %v, want %v", s.Tick(), gotTicks, wantTicks[k:])
				}
				for i := range got {
					if !bytes.Equal(got[i], want[k+i]) {
						t.Fatalf("resumed from tick %d: snapshot at tick %d differs", s.Tick(), gotTicks[i])
					}
				}
				if res := r.Result(); !reflect.DeepEqual(res, wantRes) {
					t.Fatalf("resumed from tick %d: result differs:\n got %+v\nwant %+v", s.Tick(), res, wantRes)
				}
			}
		})
	}
}

// TestCruiseReadsDoNotSettle pins that Remaining and the ledger count
// running cruises' implicit cursors without changing the run: they
// agree with the per-tick run at every tick, and stay monotone.
func TestCruiseReadsDoNotSettle(t *testing.T) {
	ts := cruiseWorkload(4, 600, 6, 2)
	cfg := Config{HBMSlots: 14, Channels: 2}
	plain, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	plain.noFF = true
	cruising, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	cruising.SetBoundary(1)
	last, seen := cruising.Remaining(), 0
	for cruising.Step() {
		for plain.Tick() < cruising.Tick() && plain.Step() {
		}
		rem := cruising.Remaining()
		if rem != plain.Remaining() || rem > last {
			t.Fatalf("tick %d: Remaining %d, per-tick %d, previous %d", cruising.Tick(), rem, plain.Remaining(), last)
		}
		last = rem
		if a, b := workLedger(cruising), workLedger(plain); a != b {
			t.Fatalf("tick %d: ledgers diverge:\ncruising: %+v\nper-tick: %+v", cruising.Tick(), a, b)
		}
		if cruising.nCruising > 0 {
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("no tick had a running cruise")
	}
}

// TestCruiseProbeOutcomes pins both outcomes of the engagement probe
// (see decide) against the per-tick run, under LRU, FIFO arbitration
// and two channels: a hit-heavy run keeps cruising past the probe, and
// a run whose cruises are too short switches cruising off and steps
// every tick from then on.
func TestCruiseProbeOutcomes(t *testing.T) {
	for _, c := range []struct {
		name  string
		k     int
		ts    [][]model.PageID
		keeps bool
	}{
		{"keeps", 32, hitHeavyWorkload(4, 90000, 5), true},
		{"stops", 14, cruiseWorkload(4, 3000, 6, 3), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{HBMSlots: c.k, Channels: 2, Arbiter: arbiter.FIFO}
			checkCruise(t, cfg, c.ts, 0)
			s, err := New(cfg, c.ts)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := New(cfg, c.ts)
			if err != nil {
				t.Fatal(err)
			}
			plain.noFF = true
			for !s.decided && s.Step() {
			}
			if !s.decided || s.attempts < cruiseProbe {
				t.Fatalf("the probe never decided (%d attempts)", s.attempts)
			}
			if s.cruise != c.keeps {
				t.Fatalf("after %d attempts: cruising %v, want %v", s.attempts, s.cruise, c.keeps)
			}
			// The decision leaves the state of the per-tick run.
			for plain.Tick() < s.Tick() && plain.Step() {
			}
			var a, b bytes.Buffer
			if err := s.Checkpoint(&a); err != nil {
				t.Fatal(err)
			}
			if err := plain.Checkpoint(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("tick %d: checkpoint after the decision differs from the per-tick run's", s.Tick())
			}
			for s.Step() {
			}
			if !s.decided || s.cruise != c.keeps {
				t.Fatalf("run ended with decided %v, cruising %v; want decided, cruising %v", s.decided, s.cruise, c.keeps)
			}
		})
	}
}

// TestCruiseTrimFlush drives the recency logs past their backlog, so
// trimLogs forces flushes, and compares each tick that forced one with
// the per-tick run, checkpoint bytes included: a flush that ran ahead
// of the tick's eager touches would leave the LRU list out of order.
// Two cores cruise around 170 and 200 resident pages, so every cruise
// end logs that many live deferred touches, and the core whose cruise
// ended is served eagerly on the next tick while the other is still
// cruising. HBM never fills, so no eviction flushes the logs first.
func TestCruiseTrimFlush(t *testing.T) {
	ts := [][]model.PageID{make([]model.PageID, 3000), make([]model.PageID, 3000)}
	for i := range ts[0] {
		ts[0][i] = model.PageID(i % 170)
		ts[1][i] = model.PageID(1000 + i%200)
	}
	cfg := Config{HBMSlots: 1024, Channels: 1}
	plain, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	plain.noFF = true
	s, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	forced := 0
	for {
		epoch := s.epoch
		if !s.Step() {
			break
		}
		for plain.Tick() < s.Tick() && plain.Step() {
		}
		if s.epoch == epoch {
			continue
		}
		forced++
		var a, b bytes.Buffer
		if err := s.Checkpoint(&a); err != nil {
			t.Fatal(err)
		}
		if err := plain.Checkpoint(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("tick %d: checkpoint after a forced flush differs from the per-tick run's", s.Tick())
		}
	}
	for plain.Step() {
	}
	if forced == 0 || s.evictions != 0 {
		t.Fatalf("%d forced flushes, %d evictions; want some flushes and no evictions", forced, s.evictions)
	}
	if a, b := s.Result(), plain.Result(); !reflect.DeepEqual(a, b) {
		t.Fatalf("results diverge:\ncruising: %+v\nper-tick: %+v", a, b)
	}
}

// TestCruiseObserverAttachDetach attaches an event observer to a
// cruising run mid-way and detaches it later, under LRU and Belady. The
// run must keep cruising once observed, the observer must receive the
// per-tick run's events from the attach tick to the detach tick, and
// the run must end with the per-tick Result.
func TestCruiseObserverAttachDetach(t *testing.T) {
	ts := hitHeavyWorkload(3, 3000, 5)
	for _, pol := range []replacement.Kind{replacement.LRU, replacement.Belady} {
		t.Run(string(pol), func(t *testing.T) {
			cfg := Config{HBMSlots: 32, Channels: 2, Replacement: pol, Seed: 5, CollectHistogram: true}
			s, err := New(cfg, ts)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := New(cfg, ts)
			if err != nil {
				t.Fatal(err)
			}
			plain.noFF = true
			// Attach with a cruise running, and detach a third of the way
			// through the run.
			for (s.Tick() < 500 || s.nCruising == 0) && s.Step() {
			}
			attach, cruised := s.Tick(), s.CruisedServes()
			rec, plainRec := &streamRecorder{}, &streamRecorder{}
			s.SetObserver(rec)
			for s.Tick() < 1000 && s.Step() {
			}
			detach := s.Tick()
			s.SetObserver(nil)
			if s.CruisedServes() <= cruised {
				t.Fatalf("no serve cruised from tick %d to %d with an observer attached", attach, detach)
			}
			for plain.Tick() < attach && plain.Step() {
			}
			plain.SetObserver(plainRec)
			for plain.Tick() < detach && plain.Step() {
			}
			plain.SetObserver(nil)
			if len(plainRec.lines) == 0 {
				t.Fatalf("the per-tick run emitted nothing from tick %d to %d", attach, detach)
			}
			diffLines(t, "attached", rec.lines, plainRec.lines)
			for s.Step() {
			}
			for plain.Step() {
			}
			if a, b := s.Result(), plain.Result(); !reflect.DeepEqual(a, b) {
				t.Fatalf("results diverge:\ncruising: %+v\nper-tick: %+v", a, b)
			}
		})
	}
}
