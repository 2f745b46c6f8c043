package membackend

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// RunBackendConformance drives a backend through a deterministic
// scripted load and asserts the contract every backend must honour
// before it can be registered (BACKENDS.md walks through each clause):
//
//   - DueAt truthfulness: the step-3 answer equals what Drain actually
//     returns after the grant phase admits min(GrantLimit, queueLen).
//   - Conservation: every Start is eventually drained exactly once
//     (started == drained after the script's cooldown drains the
//     backend to empty), and the in-flight count — started minus
//     drained — never exceeds MaxInFlight and is what Transfers lists.
//   - Completion-ordering determinism: two fresh instances replaying
//     the same script produce identical drain streams.
//   - NextEventTick: zero exactly when idle, always in the future, and
//     non-decreasing across ticks that admit no new transfer.
//   - Checkpoint round-trip bit-identity: Save → Load into a fresh
//     instance → Save reproduces the first byte stream, and the
//     restored instance replays the rest of the script identically.
//
// newBackend must return a fresh, empty instance of the backend under
// test each call.
func RunBackendConformance(t *testing.T, newBackend func() Backend) {
	t.Helper()
	script := genScript(implementsWriteback(newBackend()))

	first := runScript(t, newBackend(), script, 0, 0, nil)
	second := runScript(t, newBackend(), script, 0, 0, nil)
	if first.drainLog != second.drainLog {
		t.Errorf("conformance: two replays of the same script diverged:\n%s\nvs\n%s", first.drainLog, second.drainLog)
	}
	if first.started != first.drained {
		t.Errorf("conformance: started %d transfers but drained %d after cooldown", first.started, first.drained)
	}

	// Checkpoint round-trip: snapshot mid-script, restore into a fresh
	// instance, and require (a) bit-identical re-save and (b) an
	// identical replay of the remaining script.
	restored := newBackend()
	full := runScript(t, newBackend(), script, 0, 0, func(tick model.Tick, b Backend) {
		if tick != snapshotTick {
			return
		}
		var buf bytes.Buffer
		w := snap.NewWriter(&buf)
		b.SaveState(w)
		if err := w.Finish(); err != nil {
			t.Fatalf("conformance: SaveState: %v", err)
		}
		r := snap.NewReader(bytes.NewReader(buf.Bytes()))
		r.MaxCores = scriptCores
		r.MaxPages = scriptPages
		r.Tick = uint64(tick)
		restored.LoadState(r)
		if err := r.Verify(); err != nil {
			t.Fatalf("conformance: LoadState: %v", err)
		}
		var buf2 bytes.Buffer
		w2 := snap.NewWriter(&buf2)
		restored.SaveState(w2)
		if err := w2.Finish(); err != nil {
			t.Fatalf("conformance: re-SaveState: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Errorf("conformance: save → load → save is not bit-identical (%d vs %d bytes)", buf.Len(), buf2.Len())
		}
		if got, want := restored.NextEventTick(), b.NextEventTick(); got != want {
			t.Errorf("conformance: restored NextEventTick %d, original %d", got, want)
		}
		if got, want := restored.Transfers(nil), b.Transfers(nil); !slices.Equal(got, want) {
			t.Errorf("conformance: restored Transfers %v, original %v", got, want)
		}
	})
	tail := runScript(t, restored, script, snapshotTick, full.snapInFlight, nil)
	if full.tailLog != tail.drainLog {
		t.Errorf("conformance: restored instance diverged after tick %d:\n%s\nvs\n%s", snapshotTick, tail.drainLog, full.tailLog)
	}
}

func implementsWriteback(b Backend) bool {
	_, ok := b.(WritebackSink)
	return ok
}

const (
	scriptTicks  = 240
	snapshotTick = 120
	scriptCores  = 8
	scriptPages  = 1 << 16
)

// tickScript is one tick's offered load: candidate transfers for the
// grant phase (the backend admits a prefix, bounded by its GrantLimit)
// and an optional eviction writeback. Generated once, independent of
// any backend state, so originals and restored instances see the exact
// same offers.
type tickScript struct {
	queue []Transfer
	wb    model.PageID
	hasWB bool
}

// genScript derives the shared load from a fixed xorshift stream. The
// final quarter of the script offers nothing, forcing a full drain.
func genScript(withWB bool) []tickScript {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(mod int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(mod))
	}
	script := make([]tickScript, scriptTicks+1)
	for tick := 1; tick <= scriptTicks; tick++ {
		var ts tickScript
		if tick <= scriptTicks*3/4 {
			n := next(6)
			for i := 0; i < n; i++ {
				ts.queue = append(ts.queue, Transfer{
					Core: model.CoreID(next(scriptCores)),
					Page: model.PageID(next(scriptPages)),
				})
			}
			if withWB && next(4) == 0 {
				ts.wb, ts.hasWB = model.PageID(next(scriptPages)), true
			}
		}
		script[tick] = ts
	}
	return script
}

type scriptResult struct {
	started int
	drained int
	// snapInFlight is the in-flight count at the end of snapshotTick.
	snapInFlight int
	drainLog     string
	// tailLog is the drain log restricted to ticks after snapshotTick.
	tailLog string
}

// runScript drives a backend through the script from startAfter+1 (a
// restored backend replays only the post-snapshot suffix — its state
// already holds the prefix's history, including inFlight started but
// not yet drained transfers). hook, when set, runs at the end of each
// tick, after that tick's calls — where the kernel checkpoints.
func runScript(t *testing.T, b Backend, script []tickScript, startAfter model.Tick, inFlight int, hook func(model.Tick, Backend)) scriptResult {
	t.Helper()
	var res scriptResult
	var log, tailLog bytes.Buffer
	prevNext := model.Tick(0)
	prevStarted := true
	for tick := startAfter + 1; tick <= scriptTicks; tick++ {
		ts := script[tick]
		due := b.DueAt(tick, len(ts.queue))
		limit := b.GrantLimit(tick)
		if limit < 0 {
			t.Fatalf("conformance: GrantLimit(%d) = %d", tick, limit)
		}
		grants := len(ts.queue)
		if limit < grants {
			grants = limit
		}
		for _, tr := range ts.queue[:grants] {
			b.Start(tick, tr)
			res.started++
		}
		if ts.hasWB {
			b.(WritebackSink).Writeback(tick, ts.wb)
		}
		drained := b.Drain(tick, nil)
		if len(drained) != due {
			t.Fatalf("conformance: tick %d: DueAt promised %d completions, Drain returned %d", tick, due, len(drained))
		}
		res.drained += len(drained)
		inFlight += grants - len(drained)
		for _, d := range drained {
			fmt.Fprintf(&log, "t=%d c=%d p=%d\n", tick, d.Core, d.Page)
			if tick > snapshotTick {
				fmt.Fprintf(&tailLog, "t=%d c=%d p=%d\n", tick, d.Core, d.Page)
			}
		}
		if n := len(b.Transfers(nil)); n != inFlight {
			t.Fatalf("conformance: tick %d: Transfers lists %d of %d in flight", tick, n, inFlight)
		}
		if inFlight > b.MaxInFlight() {
			t.Fatalf("conformance: tick %d: %d in flight exceeds MaxInFlight %d", tick, inFlight, b.MaxInFlight())
		}
		if tick == snapshotTick {
			res.snapInFlight = inFlight
		}
		ne := b.NextEventTick()
		if (ne == 0) != (inFlight == 0) {
			t.Fatalf("conformance: tick %d: NextEventTick %d with %d in flight", tick, ne, inFlight)
		}
		if ne != 0 && ne <= tick {
			t.Fatalf("conformance: tick %d: NextEventTick %d not in the future", tick, ne)
		}
		if grants == 0 && !prevStarted && prevNext != 0 && ne != 0 && ne < prevNext {
			t.Fatalf("conformance: tick %d: NextEventTick regressed %d -> %d without a Start", tick, prevNext, ne)
		}
		prevNext, prevStarted = ne, grants > 0
		if hook != nil {
			hook(tick, b)
		}
	}
	if inFlight != 0 {
		t.Fatalf("conformance: %d transfers still in flight after cooldown", inFlight)
	}
	res.drainLog = log.String()
	res.tailLog = tailLog.String()
	return res
}
