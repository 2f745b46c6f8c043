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
// store's order. Every cell must cruise (the engagement floor); Belady
// must not.
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
							cruised := s.counters().Cruised
							if pol == replacement.Belady && mapping != MappingDirect {
								if cruised != 0 {
									t.Fatalf("Belady cruised %d serves; its cursors need every touch", cruised)
								}
								return
							}
							if cruised == 0 {
								t.Fatal("nothing cruised on a contended cell; the comparison is vacuous")
							}
						})
					}
				}
			}
		}
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
