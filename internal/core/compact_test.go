package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// sparseWorkload builds a random disjoint workload whose page IDs are NOT
// dense: core i draws from [base+i*span, base+i*span+pages) with a large
// stride, so compactTraces must actually renumber. A huge base pushes the
// IDs past the LUT threshold and exercises the map fallback.
func sparseWorkload(rng *rand.Rand, base model.PageID) [][]model.PageID {
	p := 1 + rng.Intn(5)
	out := make([][]model.PageID, p)
	for i := range out {
		n := rng.Intn(60)
		pages := 1 + rng.Intn(8)
		tr := make([]model.PageID, n)
		for j := range tr {
			tr[j] = base + model.PageID(i*100000+rng.Intn(pages)*37)
		}
		out[i] = tr
	}
	return out
}

// TestCompactTracesIdentity pins the zero-copy fast path: a workload
// already numbered densely in first-appearance order (what
// trace.NewWorkload emits) is returned unmodified with a nil
// translation table.
func TestCompactTracesIdentity(t *testing.T) {
	traces := [][]model.PageID{
		{0, 1, 0, 2, 1},
		{3, 4, 3},
		{},
		{5},
	}
	dense, origOf, universe := compactTraces(traces)
	if origOf != nil {
		t.Fatalf("identity workload produced a translation table: %v", origOf)
	}
	if universe != 6 {
		t.Fatalf("universe = %d, want 6", universe)
	}
	if &dense[0][0] != &traces[0][0] || &dense[1][0] != &traces[1][0] {
		t.Fatal("identity fast path copied the traces")
	}
}

// TestCompactTracesNonIdentity checks that any deviation from
// first-appearance numbering — even one that still uses IDs 0..U-1 — is
// detected and renumbered.
func TestCompactTracesNonIdentity(t *testing.T) {
	traces := [][]model.PageID{{1, 0}} // dense range, wrong order
	dense, origOf, universe := compactTraces(traces)
	if origOf == nil {
		t.Fatal("out-of-order workload took the identity fast path")
	}
	if universe != 2 || dense[0][0] != 0 || dense[0][1] != 1 {
		t.Fatalf("got dense=%v universe=%d", dense, universe)
	}
	if origOf[0] != 1 || origOf[1] != 0 {
		t.Fatalf("origOf = %v, want [1 0]", origOf)
	}
}

// TestCompactTracesProperties checks the renumbering invariants on random
// sparse workloads, for both the LUT path (small IDs) and the map
// fallback (IDs beyond the LUT threshold):
//
//   - dense IDs cover exactly [0, U) in first-appearance order;
//   - origOf is a bijection back to the original IDs;
//   - applying origOf to the dense traces reproduces the input exactly.
func TestCompactTracesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		base := model.PageID(1) // LUT path: small IDs
		if iter%3 == 1 {
			base = 1 << 40 // map fallback: IDs far beyond the LUT cap
		}
		traces := sparseWorkload(rng, base)
		if iter%3 == 2 {
			// Mixed: small IDs first (table grows), then sparse ones
			// (the table migrates to a map mid-assignment).
			for i := range traces {
				if i%2 == 1 {
					for j := range traces[i] {
						traces[i][j] += 1 << 40
					}
				}
			}
		}
		dense, origOf, universe := compactTraces(traces)

		uniq := map[model.PageID]struct{}{}
		for _, tr := range traces {
			for _, p := range tr {
				uniq[p] = struct{}{}
			}
		}
		if universe != len(uniq) {
			t.Fatalf("iter %d: universe %d != unique pages %d", iter, universe, len(uniq))
		}
		if origOf == nil {
			if universe == 0 {
				continue // empty workload is trivially the identity
			}
			t.Fatalf("iter %d: sparse workload took the identity path", iter)
		}
		if len(origOf) != universe {
			t.Fatalf("iter %d: len(origOf) %d != universe %d", iter, len(origOf), universe)
		}
		seen := map[model.PageID]struct{}{}
		for _, o := range origOf {
			if _, dup := seen[o]; dup {
				t.Fatalf("iter %d: origOf maps two dense IDs to %d", iter, o)
			}
			seen[o] = struct{}{}
			if _, ok := uniq[o]; !ok {
				t.Fatalf("iter %d: origOf invents page %d", iter, o)
			}
		}
		next := model.PageID(0) // first-appearance numbering check
		for i, tr := range dense {
			if len(tr) != len(traces[i]) {
				t.Fatalf("iter %d: core %d length %d != %d", iter, i, len(tr), len(traces[i]))
			}
			for j, d := range tr {
				if d > next {
					t.Fatalf("iter %d: dense ID %d appears before %d", iter, d, next)
				}
				if d == next {
					next++
				}
				if origOf[d] != traces[i][j] {
					t.Fatalf("iter %d: origOf[dense] %d != original %d at core %d pos %d",
						iter, origOf[d], traces[i][j], i, j)
				}
			}
		}
		if int(next) != universe {
			t.Fatalf("iter %d: assigned %d dense IDs, universe %d", iter, next, universe)
		}
	}
}

// event materialises one observer callback for exact differential
// comparison between the simulator and the reference loop.
type event struct {
	kind        string
	core        model.CoreID
	page        model.PageID
	tick, aux   model.Tick
	depth, busy int
	perm        string
}

// eventLog records the complete event stream.
type eventLog struct{ events []event }

func (l *eventLog) OnQueue(c model.CoreID, p model.PageID, t model.Tick) {
	l.events = append(l.events, event{kind: "queue", core: c, page: p, tick: t})
}
func (l *eventLog) OnGrant(c model.CoreID, p model.PageID, t, wait model.Tick) {
	l.events = append(l.events, event{kind: "grant", core: c, page: p, tick: t, aux: wait})
}
func (l *eventLog) OnServe(c model.CoreID, p model.PageID, t, resp model.Tick) {
	l.events = append(l.events, event{kind: "serve", core: c, page: p, tick: t, aux: resp})
}
func (l *eventLog) OnFetch(c model.CoreID, p model.PageID, t model.Tick) {
	l.events = append(l.events, event{kind: "fetch", core: c, page: p, tick: t})
}
func (l *eventLog) OnEvict(p model.PageID, t model.Tick) {
	l.events = append(l.events, event{kind: "evict", page: p, tick: t})
}
func (l *eventLog) OnRemap(t model.Tick, old, new []int32) {
	l.events = append(l.events, event{kind: "remap", tick: t, perm: fmt.Sprint(old, new)})
}
func (l *eventLog) OnTickEnd(t model.Tick, depth, busy int) {
	l.events = append(l.events, event{kind: "tick", tick: t, depth: depth, busy: busy})
}

// TestCompactedEventStreamEquivalence is the compaction property test:
// for every replacement policy (including offline Belady), both store
// organisations, and every arbiter, a random sparse workload must
// produce a bit-identical Result AND a bit-identical observer event
// stream — same eviction sequence, same ticks, same original page IDs —
// whether the simulator compacts the IDs (New) or the reference loop
// runs the map-based stores on the raw IDs (RunReference).
func TestCompactedEventStreamEquivalence(t *testing.T) {
	policies := append(replacement.Kinds(), replacement.Belady)
	rng := rand.New(rand.NewSource(17))
	for _, pol := range policies {
		for _, mapping := range []Mapping{MappingAssociative, MappingDirect} {
			for _, arb := range arbiter.Kinds() {
				name := fmt.Sprintf("%s/%s/%s", pol, mapping, arb)
				t.Run(name, func(t *testing.T) {
					for round := 0; round < 4; round++ {
						base := model.PageID(1 + rng.Intn(500))
						if round%2 == 1 {
							base = 1 << 40 // force the map fallback in compactTraces
						}
						traces := sparseWorkload(rng, base)
						q := 1 + rng.Intn(3)
						cfg := Config{
							HBMSlots:     q + 1 + rng.Intn(10),
							Channels:     q,
							Arbiter:      arb,
							Replacement:  pol,
							Permuter:     arbiter.PermuterKinds()[rng.Intn(len(arbiter.PermuterKinds()))],
							Mapping:      mapping,
							RemapPeriod:  model.Tick(rng.Intn(16)),
							FetchLatency: 1 + rng.Intn(4),
							Seed:         rng.Int63(),
							MaxTicks:     200000,
						}

						s, err := New(cfg, traces)
						if err != nil {
							t.Fatalf("round %d: %v", round, err)
						}
						cLog, uLog := &eventLog{}, &eventLog{}
						s.SetObserver(cLog)
						for s.Step() {
						}
						cRes, cErr := s.Result(), s.Err()
						uRes, uErr := RunReference(cfg, traces, uLog)
						cEvents, uEvents := cLog.events, uLog.events

						if !reflect.DeepEqual(cRes, uRes) || !reflect.DeepEqual(cErr, uErr) {
							t.Fatalf("round %d: Results diverge:\ncompacted: %+v (%v)\nreference: %+v (%v)", round, cRes, cErr, uRes, uErr)
						}
						if len(cEvents) != len(uEvents) {
							t.Fatalf("round %d: event counts diverge: %d vs %d", round, len(cEvents), len(uEvents))
						}
						for i := range cEvents {
							if cEvents[i] != uEvents[i] {
								t.Fatalf("round %d: event %d diverges:\ncompacted: %+v\nreference: %+v",
									round, i, cEvents[i], uEvents[i])
							}
						}
					}
				})
			}
		}
	}
}

var _ Observer = (*eventLog)(nil)
