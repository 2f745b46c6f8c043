package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// hitHeavyWorkload builds p cores that each cycle a working set small
// enough to stay resident, so long contention-free stretches form: the
// shape cruising exists for. A few far jumps are mixed in so stretches
// end and restart.
func hitHeavyWorkload(p, refs, span int) [][]model.PageID {
	ts := make([][]model.PageID, p)
	seed := uint64(7)
	for c := range ts {
		tr := make([]model.PageID, refs)
		pos := 0
		for i := range tr {
			seed = seed*6364136223846793005 + 1442695040888963407
			if seed%97 == 0 {
				pos = int(seed>>33) % (span * 4) // rare far jump
			} else {
				pos = (pos + 1) % span
			}
			tr[i] = model.PageID(c*1000 + pos)
		}
		ts[c] = tr
	}
	return ts
}

// runBoth executes the same configuration twice — cruising and stepped
// tick by tick (noFF) — under full event recorders, and returns both
// sides.
func runBoth(t *testing.T, cfg Config, ts [][]model.PageID) (ff, plain *Sim, ffRec, plainRec *streamRecorder, ffRes, plainRes *Result) {
	t.Helper()
	ff, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err = New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	plain.noFF = true
	ffRec, ffRes = runRecorded(ff)
	plainRec, plainRes = runRecorded(plain)
	return
}

// TestFastForwardDifferential is the gate on observed cruising: across
// the full replacement x arbiter x mapping matrix, on a workload with
// long hit stretches, a run with an event observer attached must produce
// a Result and an element-wise Observer event stream identical to
// single-tick stepping — and every associative cell, Belady included,
// must cruise, or the test is vacuous. The direct-mapped cells thrash on
// this shape.
func TestFastForwardDifferential(t *testing.T) {
	policies := append(replacement.Kinds(), replacement.Belady)
	ts := hitHeavyWorkload(3, 400, 5)
	for _, mapping := range Mappings() {
		for _, arb := range arbiter.Kinds() {
			for _, pol := range policies {
				cfg := Config{
					HBMSlots:         32,
					Channels:         2,
					Arbiter:          arb,
					Replacement:      pol,
					Mapping:          mapping,
					Permuter:         arbiter.Dynamic,
					RemapPeriod:      50,
					Seed:             11,
					CollectHistogram: true,
				}
				t.Run(fmt.Sprintf("%s/%s/%s", mapping, arb, pol), func(t *testing.T) {
					ff, _, ffRec, plainRec, ffRes, plainRes := runBoth(t, cfg, ts)
					if !reflect.DeepEqual(ffRes, plainRes) {
						t.Fatalf("results diverge:\n  ff: %+v\nplain: %+v", ffRes, plainRes)
					}
					diffLines(t, "fast-forward", ffRec.lines, plainRec.lines)
					if ff.FastForwardedTicks() > 0 {
						if ff.FastForwardedStretches() == 0 ||
							ff.FastForwardedTicks() < ff.FastForwardedStretches() {
							t.Fatalf("counters inconsistent: %d ticks in %d stretches",
								ff.FastForwardedTicks(), ff.FastForwardedStretches())
						}
					}
					if mapping != MappingDirect && ff.CruisedServes() == 0 {
						t.Fatal("nothing cruised on a hit-heavy associative cell; the comparison is vacuous")
					}
				})
			}
		}
	}
}

// TestFastForwardDifferentialContended reruns the differential gate on
// the contention-heavy checkpoint workload, where stretches are short
// and the trigger flips on and off constantly.
func TestFastForwardDifferentialContended(t *testing.T) {
	ts := checkpointWorkload()
	for _, cfg := range []Config{
		{HBMSlots: 8, Channels: 2, FetchLatency: 3, Arbiter: arbiter.Priority,
			Permuter: arbiter.Dynamic, RemapPeriod: 5, Seed: 42, CollectHistogram: true},
		{HBMSlots: 8, Channels: 1, Replacement: replacement.Clock, Seed: 3},
		{HBMSlots: 16, Channels: 2, Mapping: MappingDirect, Seed: 8},
		{HBMSlots: 12, Channels: 2, Replacement: replacement.Belady, FetchLatency: 2},
	} {
		_, _, ffRec, plainRec, ffRes, plainRes := runBoth(t, cfg, ts)
		if !reflect.DeepEqual(ffRes, plainRes) {
			t.Fatalf("cfg %+v: results diverge:\n  ff: %+v\nplain: %+v", cfg, ffRes, plainRes)
		}
		diffLines(t, "fast-forward", ffRec.lines, plainRec.lines)
	}
}

// TestFastForwardSkipsSteps pins the point of the whole exercise: on a
// hit-heavy single-core workload the cruising stepper must finish in far
// fewer Step calls than ticks, with the skipped ticks accounted for.
func TestFastForwardSkipsSteps(t *testing.T) {
	ts := hitHeavyWorkload(1, 10000, 6)
	s, err := New(Config{HBMSlots: 64, Channels: 1}, ts)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for s.Step() {
		steps++
	}
	ticks := int(s.Tick())
	if steps >= ticks/4 {
		t.Fatalf("fast-forward ineffective: %d steps for %d ticks", steps, ticks)
	}
	if got := int(s.FastForwardedTicks()); got == 0 || got > ticks {
		t.Fatalf("fast-forwarded ticks %d out of range (0, %d]", got, ticks)
	}
	if s.FastForwardedStretches() == 0 {
		t.Fatal("no stretches recorded despite fast-forwarded ticks")
	}
}

// TestFastForwardRespectsBoundary pins SetBoundary's contract: no Step
// may cross a multiple of the boundary (landing exactly on one is fine),
// so a driver polling Tick()%every == 0 between Steps observes every
// boundary tick — and the constraint must not change the simulation.
func TestFastForwardRespectsBoundary(t *testing.T) {
	const every = 7
	ts := hitHeavyWorkload(2, 600, 5)
	cfg := Config{HBMSlots: 32, Channels: 2, Seed: 4, CollectHistogram: true}

	free, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	for free.Step() {
	}

	bounded, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	bounded.SetBoundary(every)
	seen := map[model.Tick]bool{}
	prev := model.Tick(0)
	for {
		cont := bounded.Step()
		tk := bounded.Tick()
		// No multiple of `every` may lie strictly inside (prev, tk).
		if first := (prev/every + 1) * every; first < tk {
			t.Fatalf("step jumped from %d to %d across boundary %d", prev, tk, first)
		}
		if tk%every == 0 {
			seen[tk] = true
		}
		prev = tk
		if !cont {
			break
		}
	}
	for b := model.Tick(every); b <= bounded.Tick(); b += every {
		if !seen[b] {
			t.Fatalf("boundary tick %d never observable between Steps", b)
		}
	}
	if !reflect.DeepEqual(bounded.Result(), free.Result()) {
		t.Fatalf("SetBoundary changed the simulation:\nbounded: %+v\n   free: %+v",
			bounded.Result(), free.Result())
	}
	if bounded.FastForwardedTicks() == 0 {
		t.Fatal("bounded run never fast-forwarded; boundary test is vacuous")
	}
}

// snapshotAtBoundaries steps s to completion, writing a checkpoint each
// time the tick lands on a multiple of every, and returns the snapshots
// keyed in tick order.
func snapshotAtBoundaries(t *testing.T, s *Sim, every model.Tick) (ticks []model.Tick, snaps [][]byte) {
	t.Helper()
	prev := model.Tick(0)
	for {
		cont := s.Step()
		if tk := s.Tick(); tk != prev && tk%every == 0 {
			var buf bytes.Buffer
			if err := s.Checkpoint(&buf); err != nil {
				t.Fatalf("Checkpoint at tick %d: %v", tk, err)
			}
			ticks = append(ticks, tk)
			snaps = append(snaps, buf.Bytes())
		}
		prev = s.Tick()
		if !cont {
			break
		}
	}
	return ticks, snaps
}

// TestFastForwardCheckpointStream pins the interaction of the two
// subsystems: a driver checkpointing every N ticks must get the exact
// same snapshot ticks — and byte-identical snapshot files — whether the
// simulator single-steps or cruises with SetBoundary(N), and a
// simulator resumed from a mid-stretch boundary must reproduce the
// remaining snapshot stream byte for byte.
func TestFastForwardCheckpointStream(t *testing.T) {
	const every = 7
	ts := hitHeavyWorkload(2, 500, 5)
	cfg := Config{HBMSlots: 32, Channels: 2, Arbiter: arbiter.Priority,
		Permuter: arbiter.Dynamic, RemapPeriod: 40, Seed: 21, CollectHistogram: true}

	plain, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	plain.noFF = true
	plain.SetBoundary(every)
	plainTicks, plainSnaps := snapshotAtBoundaries(t, plain, every)

	ff, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	ff.SetBoundary(every)
	ffTicks, ffSnaps := snapshotAtBoundaries(t, ff, every)

	if !reflect.DeepEqual(ffTicks, plainTicks) {
		t.Fatalf("snapshot ticks diverge:\n  ff: %v\nplain: %v", ffTicks, plainTicks)
	}
	if len(ffSnaps) < 3 {
		t.Fatalf("workload too short: only %d snapshots", len(ffSnaps))
	}
	for i := range ffSnaps {
		if !bytes.Equal(ffSnaps[i], plainSnaps[i]) {
			t.Fatalf("snapshot at tick %d differs between fast-forward and single-step runs", ffTicks[i])
		}
	}
	if ff.FastForwardedTicks() == 0 {
		t.Fatal("fast-forward never engaged; checkpoint-stream test is vacuous")
	}

	// Resume from the middle of the stream and replay the rest.
	mid := len(ffSnaps) / 2
	resumed, err := Resume(bytes.NewReader(ffSnaps[mid]), cfg, ts)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	resumed.SetBoundary(every)
	resTicks, resSnaps := snapshotAtBoundaries(t, resumed, every)
	if want := ffTicks[mid+1:]; !reflect.DeepEqual(resTicks, want) {
		t.Fatalf("resumed snapshot ticks %v, want %v", resTicks, want)
	}
	for i := range resSnaps {
		if !bytes.Equal(resSnaps[i], ffSnaps[mid+1+i]) {
			t.Fatalf("resumed snapshot at tick %d differs from the uninterrupted stream", resTicks[i])
		}
	}
	if !reflect.DeepEqual(resumed.Result(), ff.Result()) {
		t.Fatalf("resumed result differs:\n got %+v\nwant %+v", resumed.Result(), ff.Result())
	}
}

// ffFuzzTraces derives a hit-prone workload from fuzz bytes: two cores
// over tiny page ranges, so stretches form and the fast path is hot.
func ffFuzzTraces(data []byte) [][]model.PageID {
	if len(data) > 96 {
		data = data[:96]
	}
	ts := make([][]model.PageID, 2)
	for i, b := range data {
		ts[i%2] = append(ts[i%2], model.PageID(int(b&3)+(i%2)*100))
	}
	for c := range ts {
		if len(ts[c]) == 0 {
			ts[c] = []model.PageID{model.PageID(c * 100)}
		}
	}
	return ts
}

// FuzzFastForwardDifferential fuzzes workload bytes and a configuration
// seed through both steppers, requiring bit-identical Results and event
// streams. It is the randomized arm of TestFastForwardDifferential.
func FuzzFastForwardDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}, int64(1))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}, int64(7))
	f.Add([]byte{3, 2, 1, 0, 3, 2, 1, 0}, int64(42))
	// Two cores each looping over two pages: under these configuration
	// seeds (LRU and Belady, no remaps) the run cruises after its cold
	// misses, so the seed corpus alone exercises the fold.
	loop := make([]byte, 96)
	for i := range loop {
		loop[i] = byte(i % 4)
	}
	f.Add(loop, int64(67))
	f.Add(loop, int64(121))
	f.Fuzz(func(t *testing.T, data []byte, cfgSeed int64) {
		rng := rand.New(rand.NewSource(cfgSeed))
		cfg := genConfig(rng)
		cfg.CollectHistogram = true
		ts := ffFuzzTraces(data)

		ff, err := New(cfg, ts)
		if err != nil {
			t.Skip()
		}
		plain, err := New(cfg, ts)
		if err != nil {
			t.Fatal(err)
		}
		plain.noFF = true
		ffRec, ffRes := runRecorded(ff)
		plainRec, plainRes := runRecorded(plain)
		if !reflect.DeepEqual(ffRes, plainRes) {
			t.Fatalf("cfg %+v: results diverge:\n  ff: %+v\nplain: %+v", cfg, ffRes, plainRes)
		}
		diffLines(t, "fast-forward", ffRec.lines, plainRec.lines)

		// A third simulator carries only a counter observer, so it runs
		// with no event observer, as a metered run does, and cruises. All
		// three leave the ledger the per-tick event stream adds up to;
		// only the fast-forward and cruise counters tell the steppers
		// apart, and each must match its own Sim's.
		counted, err := New(cfg, ts)
		if err != nil {
			t.Fatal(err)
		}
		cc := &counterCopy{}
		counted.SetObserver(cc)
		for counted.Step() {
		}
		if res := counted.Result(); !reflect.DeepEqual(res, plainRes) {
			t.Fatalf("cfg %+v: counted result diverges:\ncounted: %+v\n  plain: %+v", cfg, res, plainRes)
		}
		want := recordedLedger(t, plainRec.lines)
		for name, got := range map[string]Counters{
			"fast-forward": *ff.counters(), "per-tick": *plain.counters(), "pushed": cc.pushes[len(cc.pushes)-1],
		} {
			wantFF, wantCruised := ff.ffTicks, ff.cruised
			switch name {
			case "per-tick":
				wantFF, wantCruised = 0, 0
			case "pushed":
				wantFF, wantCruised = counted.ffTicks, counted.cruised
			}
			if got.FFTicks != wantFF || got.Cruised != wantCruised {
				t.Fatalf("cfg %+v: %s ledger has %d ff ticks and %d cruised serves, want %d and %d",
					cfg, name, got.FFTicks, got.Cruised, wantFF, wantCruised)
			}
			got.FFTicks, got.FFStretches, got.Cruised = 0, 0, 0
			if got != want {
				t.Fatalf("cfg %+v: %s ledger\n%+v\nper-tick events add up to\n%+v", cfg, name, got, want)
			}
		}

		// The cruising simulator against the per-tick one, checkpointed
		// every few ticks: Results, Tick(), ledgers and every snapshot.
		checkCruise(t, cfg, ts, model.Tick(1+rng.Intn(16)))
	})
}

// observe adds one observation of v to d.
func (d *Dist) observe(v uint64) {
	d.Sum += v
	d.Buckets[bucket(v)]++
}

// recordedLedger adds up a streamRecorder's lines into the ledger they
// describe, fast-forward counters aside.
func recordedLedger(t *testing.T, lines []string) Counters {
	t.Helper()
	var c Counters
	for _, l := range lines {
		var core, page, tick, wait, resp, depth, busy int
		var err error
		switch {
		case strings.HasPrefix(l, "queue "):
			c.Queued++
		case strings.HasPrefix(l, "grant "):
			_, err = fmt.Sscanf(l, "grant c=%d p=%d t=%d wait=%d", &core, &page, &tick, &wait)
			c.Grants++
			c.GrantWait.observe(uint64(wait))
		case strings.HasPrefix(l, "serve "):
			_, err = fmt.Sscanf(l, "serve c=%d p=%d t=%d resp=%d", &core, &page, &tick, &resp)
			c.Serves++
			if resp == 1 {
				c.Hits++
			}
			c.Response.observe(uint64(resp))
		case strings.HasPrefix(l, "fetch "):
			c.Fetches++
		case strings.HasPrefix(l, "evict "):
			c.Evictions++
		case strings.HasPrefix(l, "remap "):
			c.Remaps++
		case strings.HasPrefix(l, "tick "):
			_, err = fmt.Sscanf(l, "tick t=%d depth=%d busy=%d", &tick, &depth, &busy)
			c.Ticks++
			c.QueueDepth.observe(uint64(depth))
		}
		if err != nil {
			t.Fatalf("parsing %q: %v", l, err)
		}
	}
	return c
}

// counterCopy is a test-only CounterObserver that keeps the ledgers it
// is handed. Its event callbacks, which the simulator must never call,
// record into the embedded streamRecorder.
type counterCopy struct {
	streamRecorder
	pushes []Counters
}

func (c *counterCopy) OnCounters(l *Counters) { c.pushes = append(c.pushes, *l) }

// TestSetObserverSplitsCounterObservers pins SetObserver's split: counter
// observers alone, in a fan-out, or nested leave no event observer
// installed; in a mixed set only the event members receive events. Either
// way every counter observer ends with the ledger the per-tick event
// stream adds up to.
func TestSetObserverSplitsCounterObservers(t *testing.T) {
	ts := hitHeavyWorkload(3, 400, 5)
	cfg := Config{HBMSlots: 32, Channels: 2, Seed: 11}
	plain, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	plain.noFF = true
	plainRec, _ := runRecorded(plain)
	want := recordedLedger(t, plainRec.lines)

	for _, tc := range []struct {
		name   string
		build  func(cc, cc2 *counterCopy, rec *streamRecorder) Observer
		events bool
	}{
		{"alone", func(cc, _ *counterCopy, _ *streamRecorder) Observer { return cc }, false},
		{"multi", func(cc, cc2 *counterCopy, _ *streamRecorder) Observer { return NewMultiObserver(cc, cc2) }, false},
		{"nested", func(cc, cc2 *counterCopy, _ *streamRecorder) Observer {
			return NewMultiObserver(NewMultiObserver(cc), NewMultiObserver(), NewMultiObserver(NewMultiObserver(cc2)))
		}, false},
		{"mixed", func(cc, cc2 *counterCopy, rec *streamRecorder) Observer { return NewMultiObserver(cc, rec, cc2) }, true},
		{"nested-mixed", func(cc, cc2 *counterCopy, rec *streamRecorder) Observer {
			return NewMultiObserver(cc, NewMultiObserver(rec, cc2))
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(cfg, ts)
			if err != nil {
				t.Fatal(err)
			}
			cc, cc2, rec := &counterCopy{}, &counterCopy{}, &streamRecorder{}
			s.SetObserver(tc.build(cc, cc2, rec))
			if installed := s.obs != nil; installed != tc.events {
				t.Fatalf("event observer installed: %v, want %v", installed, tc.events)
			}
			for s.Step() {
			}
			if s.ffTicks == 0 {
				t.Fatal("fast-forward never engaged; the test is vacuous")
			}
			for _, c := range []*counterCopy{cc, cc2} {
				if tc.name == "alone" && c == cc2 {
					continue
				}
				if len(c.lines) != 0 {
					t.Fatalf("a counter observer received %d events, first %q", len(c.lines), c.lines[0])
				}
				if len(c.pushes) == 0 {
					t.Fatal("a counter observer never received the ledger")
				}
				got := c.pushes[len(c.pushes)-1]
				got.FFTicks, got.FFStretches, got.Cruised = 0, 0, 0
				if got != want {
					t.Fatalf("final ledger\n%+v\nper-tick events add up to\n%+v", got, want)
				}
			}
			if tc.events {
				diffLines(t, "event member", rec.lines, plainRec.lines)
			} else if len(rec.lines) != 0 {
				t.Fatalf("%d events reached an observer that was not attached", len(rec.lines))
			}
		})
	}
}

// TestCounterObserverCadence pins when Step hands over the ledger: on
// the first Step at or past each multiple of 1024 ticks, and on every
// Step that returns false. A push allocates nothing.
func TestCounterObserverCadence(t *testing.T) {
	ts := benchWorkload(4, 64, 1500)
	for _, noFF := range []bool{true, false} {
		s, err := New(Config{HBMSlots: 128, Channels: 1}, ts)
		if err != nil {
			t.Fatal(err)
		}
		s.noFF = noFF
		cc := &counterCopy{}
		s.SetObserver(cc)
		var want []uint64
		next := model.Tick(counterTicks)
		for s.Step() {
			if s.tick >= next {
				want = append(want, uint64(s.tick))
				next = (s.tick/counterTicks + 1) * counterTicks
			}
		}
		want = append(want, uint64(s.tick))
		s.Step() // a finished run pushes again, unchanged
		want = append(want, uint64(s.tick))
		var got []uint64
		for _, c := range cc.pushes {
			got = append(got, c.Ticks)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("noFF=%v: pushed at ticks %v, want %v", noFF, got, want)
		}
		if noFF && len(want) < 4 {
			t.Fatalf("only %d pushes; the run is too short to test the cadence", len(want))
		}
		if last := cc.pushes[len(cc.pushes)-1]; last.Serves != s.Result().TotalRefs {
			t.Fatalf("noFF=%v: final ledger has %d serves, Result %d", noFF, last.Serves, s.Result().TotalRefs)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.pushCounters(true); cc.pushes = cc.pushes[:0] }); allocs != 0 {
			t.Fatalf("a push allocates %v times", allocs)
		}
	}
}

// TestLedgerCountsFromResume: a resumed simulator's ledger starts at
// zero, so it holds exactly what the uninterrupted run's ledger gained
// after the checkpoint.
func TestLedgerCountsFromResume(t *testing.T) {
	ts := checkpointWorkload()
	cfg := Config{HBMSlots: 8, Channels: 2, FetchLatency: 3, Arbiter: arbiter.Priority,
		Permuter: arbiter.Dynamic, RemapPeriod: 5, Seed: 42}
	const at = 40
	full, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	full.SetBoundary(at)
	for full.Tick() < at && full.Step() {
	}
	var snap bytes.Buffer
	if err := full.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	before := *full.counters()
	for full.Step() {
	}
	after := *full.counters()

	resumed, err := Resume(&snap, cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	resumed.SetBoundary(at)
	for resumed.Step() {
	}
	got := *resumed.counters()
	// The scan caches and the cruises are not checkpointed, so the two
	// runs may jump different stretches and cruise differently after
	// the checkpoint.
	got.FFTicks, got.FFStretches, got.Cruised = 0, 0, 0
	want := after
	want.FFTicks, want.FFStretches, want.Cruised = 0, 0, 0
	for _, f := range []struct{ w, b *uint64 }{
		{&want.Ticks, &before.Ticks}, {&want.Serves, &before.Serves}, {&want.Hits, &before.Hits},
		{&want.Queued, &before.Queued}, {&want.Grants, &before.Grants}, {&want.Fetches, &before.Fetches},
		{&want.Evictions, &before.Evictions}, {&want.Remaps, &before.Remaps},
	} {
		*f.w -= *f.b
	}
	for _, d := range []struct{ w, b *Dist }{
		{&want.QueueDepth, &before.QueueDepth}, {&want.GrantWait, &before.GrantWait}, {&want.Response, &before.Response},
	} {
		d.w.Sum -= d.b.Sum
		for i := range d.w.Buckets {
			d.w.Buckets[i] -= d.b.Buckets[i]
		}
	}
	if before.Serves == 0 || got.Serves == 0 {
		t.Fatalf("checkpoint at tick %d splits nothing: %d serves before, %d after", at, before.Serves, got.Serves)
	}
	if got != want {
		t.Fatalf("resumed ledger\n%+v\nwant the uninterrupted run's gain\n%+v", got, want)
	}
}
