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
// shape the fast-forward path exists for. A few far jumps are mixed in
// so stretches end and restart.
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

// runBoth executes the same configuration twice — fast-forward enabled
// and disabled — under full event recorders, and returns both sides.
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

// TestFastForwardDifferential is the gate on the batched stepper: across
// the full replacement x arbiter x mapping matrix, on a workload with
// long hit stretches, the fast-forward path must produce a Result and an
// element-wise Observer event stream identical to single-tick stepping —
// and must actually engage on most of the matrix, or the test is
// vacuous.
func TestFastForwardDifferential(t *testing.T) {
	policies := append(replacement.Kinds(), replacement.Belady)
	ts := hitHeavyWorkload(3, 400, 5)
	engaged := 0
	cells := 0
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
				cells++
				t.Run(fmt.Sprintf("%s/%s/%s", mapping, arb, pol), func(t *testing.T) {
					ff, _, ffRec, plainRec, ffRes, plainRes := runBoth(t, cfg, ts)
					if !reflect.DeepEqual(ffRes, plainRes) {
						t.Fatalf("results diverge:\n  ff: %+v\nplain: %+v", ffRes, plainRes)
					}
					diffLines(t, "fast-forward", ffRec.lines, plainRec.lines)
					if ff.FastForwardedTicks() > 0 {
						engaged++
						if ff.FastForwardedStretches() == 0 ||
							ff.FastForwardedTicks() < ff.FastForwardedStretches() {
							t.Fatalf("counters inconsistent: %d ticks in %d stretches",
								ff.FastForwardedTicks(), ff.FastForwardedStretches())
						}
					}
				})
			}
		}
	}
	if engaged < cells/2 {
		t.Fatalf("fast-forward engaged in only %d of %d matrix cells on a hit-heavy workload", engaged, cells)
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
// hit-heavy single-core workload the batched stepper must finish in far
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
// simulator single-steps or fast-forwards with SetBoundary(N), and a
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
	// seeds (LRU and Belady, no remaps) the run fast-forwards after its
	// cold misses, so the seed corpus alone exercises the fold.
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

		// A third simulator carries a folding observer: it must see the
		// same stretches folded (not replayed) and end with the per-tick
		// recording's totals.
		folded, err := New(cfg, ts)
		if err != nil {
			t.Fatal(err)
		}
		fc := newFoldCounter(len(ts))
		folded.SetObserver(fc)
		for folded.Step() {
		}
		if res := folded.Result(); !reflect.DeepEqual(res, plainRes) {
			t.Fatalf("cfg %+v: folded result diverges:\nfolded: %+v\n plain: %+v", cfg, res, plainRes)
		}
		if want := recordedCounts(t, plainRec.lines, len(ts)); !reflect.DeepEqual(fc.counts, want) {
			t.Fatalf("cfg %+v: folded totals %+v, per-tick recording %+v", cfg, fc.counts, want)
		}
		if fc.stretches != folded.FastForwardedStretches() ||
			folded.FastForwardedTicks() != ff.FastForwardedTicks() {
			t.Fatalf("cfg %+v: folded %d of %d stretches (%d ticks; unobserved run %d)", cfg,
				fc.stretches, folded.FastForwardedStretches(), folded.FastForwardedTicks(), ff.FastForwardedTicks())
		}
	})
}

// foldCounts are the totals a counting observer keeps: per-core serves
// and hits, the response sum, tick ends, and the end-of-tick queue-depth
// sum.
type foldCounts struct {
	Serves, Hits             []uint64
	RespSum, Ticks, DepthSum uint64
}

func newFoldCounts(cores int) foldCounts {
	return foldCounts{Serves: make([]uint64, cores), Hits: make([]uint64, cores)}
}

func (c *foldCounts) serve(core model.CoreID, resp model.Tick) {
	c.Serves[core]++
	if resp == 1 {
		c.Hits[core]++
	}
	c.RespSum += uint64(resp)
}

// foldCounter is a test-only folding observer (StretchObserver) over
// foldCounts; stretches counts its OnStretch calls.
type foldCounter struct {
	NopObserver
	counts    foldCounts
	stretches uint64
}

func newFoldCounter(cores int) *foldCounter { return &foldCounter{counts: newFoldCounts(cores)} }

func (f *foldCounter) OnServe(c model.CoreID, _ model.PageID, _, resp model.Tick) {
	f.counts.serve(c, resp)
}

func (f *foldCounter) OnTickEnd(_ model.Tick, depth, _ int) {
	f.counts.Ticks++
	f.counts.DepthSum += uint64(depth)
}

func (f *foldCounter) OnStretch(_, n model.Tick, active []model.CoreID, first []model.Tick) bool {
	f.stretches++
	for i, c := range active {
		f.counts.serve(c, first[i])
		f.counts.Serves[c] += uint64(n - 1)
		f.counts.Hits[c] += uint64(n - 1)
		f.counts.RespSum += uint64(n - 1)
	}
	f.counts.Ticks += uint64(n)
	return true
}

// recordedCounts derives foldCounts from a streamRecorder's lines.
func recordedCounts(t *testing.T, lines []string, cores int) foldCounts {
	t.Helper()
	c := newFoldCounts(cores)
	for _, l := range lines {
		var core, page, tick, resp, depth, busy int
		switch {
		case strings.HasPrefix(l, "serve "):
			if _, err := fmt.Sscanf(l, "serve c=%d p=%d t=%d resp=%d", &core, &page, &tick, &resp); err != nil {
				t.Fatalf("parsing %q: %v", l, err)
			}
			c.serve(model.CoreID(core), model.Tick(resp))
		case strings.HasPrefix(l, "tick "):
			if _, err := fmt.Sscanf(l, "tick t=%d depth=%d busy=%d", &tick, &depth, &busy); err != nil {
				t.Fatalf("parsing %q: %v", l, err)
			}
			c.Ticks++
			c.DepthSum += uint64(depth)
		}
	}
	return c
}

// TestMultiObserverFoldsOnlyWhenAllFold pins the fan-out's rule: a
// MultiObserver folds stretches only when every member (nested fan-outs
// included) folds; one replaying member makes every member replay, and
// the folding members' totals are the same either way.
func TestMultiObserverFoldsOnlyWhenAllFold(t *testing.T) {
	ts := hitHeavyWorkload(3, 400, 5)
	cfg := Config{HBMSlots: 32, Channels: 2, Seed: 11}
	plain, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	plain.noFF = true
	rec, _ := runRecorded(plain)
	want := recordedCounts(t, rec.lines, len(ts))

	for _, tc := range []struct {
		name  string
		build func(fc *foldCounter) Observer
		folds bool
	}{
		{"alone", func(fc *foldCounter) Observer { return fc }, true},
		{"multi", func(fc *foldCounter) Observer { return NewMultiObserver(fc, newFoldCounter(len(ts))) }, true},
		{"nested", func(fc *foldCounter) Observer { return NewMultiObserver(NewMultiObserver(fc), NewMultiObserver()) }, true},
		{"mixed", func(fc *foldCounter) Observer { return NewMultiObserver(fc, &streamRecorder{}) }, false},
		{"nested-mixed", func(fc *foldCounter) Observer {
			return NewMultiObserver(fc, NewMultiObserver(&streamRecorder{}))
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(cfg, ts)
			if err != nil {
				t.Fatal(err)
			}
			fc := newFoldCounter(len(ts))
			s.SetObserver(tc.build(fc))
			for s.Step() {
			}
			if s.FastForwardedStretches() == 0 {
				t.Fatal("fast-forward never engaged; the test is vacuous")
			}
			if !reflect.DeepEqual(fc.counts, want) {
				t.Fatalf("totals %+v, per-tick recording %+v", fc.counts, want)
			}
			var wantFolded uint64
			if tc.folds {
				wantFolded = s.FastForwardedStretches()
			}
			if fc.stretches != wantFolded {
				t.Fatalf("folded %d of %d stretches, want %d", fc.stretches, s.FastForwardedStretches(), wantFolded)
			}
		})
	}
}
