package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
	"hbmsim/internal/trace"
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

// compact runs compactTraces on a disjoint workload and returns the
// dense traces, origOf and the universe size.
func compact(t *testing.T, traces [][]model.PageID) ([][]model.PageID, []model.PageID, int) {
	t.Helper()
	dense, origOf, ranges, err := compactTraces(traces)
	if err != nil {
		t.Fatal(err)
	}
	return dense, origOf, int(ranges[len(ranges)-1].hi)
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
	dense, origOf, universe := compact(t, traces)
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
	dense, origOf, universe := compact(t, traces)
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
			base = 1 << 31 // map fallback: IDs far beyond the LUT cap
		}
		traces := sparseWorkload(rng, base)
		if iter%3 == 2 {
			// Mixed: small IDs first (table grows), then sparse ones
			// (the table migrates to a map mid-assignment).
			for i := range traces {
				if i%2 == 1 {
					for j := range traces[i] {
						traces[i][j] += 1 << 31
					}
				}
			}
		}
		dense, origOf, universe := compact(t, traces)

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
							base = 1 << 31 // force the map fallback in compactTraces
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

// overlapWorkload is a three-core dense workload in which one reference
// in ten of cores 1 and 2 goes to one of core 0's pages 0-7.
func overlapWorkload() [][]model.PageID {
	raw := make([]trace.Trace, 3)
	for i := range raw {
		raw[i] = make(trace.Trace, 200)
		for j := range raw[i] {
			raw[i][j] = model.PageID(j % 23)
		}
	}
	ts := trace.NewWorkload("overlap", raw).Raw()
	for i := 1; i < len(ts); i++ {
		for j := 9; j < len(ts[i]); j += 10 {
			ts[i][j] = model.PageID(j % 8)
		}
	}
	return ts
}

// TestSharedPagesRefused pins the disjointness check: a workload in
// which two cores reference one page is refused by New, Run and
// RunReference with trace.Workload.Validate's error, reworded for core
// (the same page and cores), whether the pages are dense or sparse, and
// whether the shared reference is a core's first.
func TestSharedPagesRefused(t *testing.T) {
	for _, c := range []struct {
		name string
		ts   [][]model.PageID
	}{
		{"dense overlap", overlapWorkload()},
		{"dense, first reference shared", [][]model.PageID{{0, 1, 2}, {2, 3, 4}}},
		{"dense, core 1 inside core 0", [][]model.PageID{{0, 1, 2, 3}, {1, 2}}},
		{"sparse", [][]model.PageID{{1 << 31, 7, 1 << 31}, {}, {9, 11, 7, 11}}},
		{"sparse, first reference shared", [][]model.PageID{{50, 40}, {40, 30}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			raw := make([]trace.Trace, len(c.ts))
			for i, tr := range c.ts {
				raw[i] = tr
			}
			verr := trace.Raw("w", raw).Validate()
			if verr == nil {
				t.Fatal("workload is disjoint")
			}
			want := "core: " + strings.TrimPrefix(verr.Error(), "trace: ")
			cfg := Config{HBMSlots: 4, Channels: 1}
			_, newErr := New(cfg, c.ts)
			_, runErr := Run(cfg, c.ts)
			_, refErr := RunReference(cfg, c.ts, nil)
			for name, err := range map[string]error{"New": newErr, "Run": runErr, "RunReference": refErr} {
				if err == nil || err.Error() != want {
					t.Errorf("%s: error %v, want %q", name, err, want)
				}
			}
		})
	}
}

// compactFuzzTraces decodes FuzzCompact's input into a workload of 1-4
// cores. The first byte gives the core count (its two low bits) and the
// mapping (bit 2); then each core reads a layout byte, a length byte and
// that many reference bytes. A reference byte below 0x80 introduces the
// core's next page and any other repeats one of its pages so far, so
// each trace is numbered in first-appearance order; the layout's two low
// bits then place the core's pages:
//
//	0: dense, from where the cores before it end;
//	1: from there plus (layout>>2)-32 (at least 0): inside an earlier
//	   core's range, or past a gap;
//	2: sparse: the core's page r is 2^32 - 2^20 + 37r + 100000*core,
//	   just below 2^32, so scanRange's unsigned p - lo wraps at 32 bits;
//	3: dense, except that each reference byte with bit 0x40 set names
//	   one of core 0's pages instead (shared, when core 0 has any).
func compactFuzzTraces(data []byte) ([][]model.PageID, Mapping) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	head := next()
	mapping := MappingAssociative
	if head&4 != 0 {
		mapping = MappingDirect
	}
	ts := make([][]model.PageID, 1+int(head%4))
	end := model.PageID(0)
	for i := range ts {
		layout, n := next(), int(next()%32)
		start := end
		if layout%4 == 1 {
			start = model.PageID(max(0, int64(end)+int64(layout>>2)-32))
		}
		place := func(r model.PageID) model.PageID { return start + r }
		if layout%4 == 2 {
			place = func(r model.PageID) model.PageID { return 1<<32 - 1<<20 + 37*r + model.PageID(100000*i) }
		}
		tr := make([]model.PageID, 0, n)
		pages := model.PageID(0)
		for j := 0; j < n; j++ {
			switch b := next(); {
			case layout%4 == 3 && b&0x40 != 0 && i > 0 && len(ts[0]) > 0:
				tr = append(tr, ts[0][int(b)%len(ts[0])])
			case b < 0x80 || pages == 0:
				tr = append(tr, place(pages))
				pages++
			default:
				tr = append(tr, place(model.PageID(b)%pages))
			}
		}
		if layout%4 != 2 {
			end = start + pages
		}
		ts[i] = tr
	}
	return ts, mapping
}

// FuzzCompact fuzzes the construction scan with dense, sparse, shared
// and empty traces (see compactFuzzTraces). New must refuse a workload
// exactly when trace.Workload.Validate does, naming the same page and
// cores, and RunReference must return New's error. Otherwise the cores' ranges must abut and cover [0, U),
// ownerOf must name the core that references each page, origOf must
// invert the renumbering, and Run's Result must equal RunReference's.
func FuzzCompact(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 3, 0, 1, 0x80})                                  // empty first core
	f.Add([]byte{2, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0})                            // empty middle core
	f.Add([]byte{1, 0, 4, 0, 0, 0, 0x81, 1 | 30<<2, 2, 0, 0})                 // core 1 starts inside core 0
	f.Add([]byte{5, 0, 3, 0, 0, 0, 1 | 34<<2, 3, 0, 0x80, 0})                 // core 1 starts past a gap
	f.Add([]byte{2, 0, 3, 0, 0, 0, 2, 4, 0, 0, 0x81, 0, 3, 3, 0x40, 0, 0x41}) // sparse and shared
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, mapping := compactFuzzTraces(data)
		raw := make([]trace.Trace, len(ts))
		for i, tr := range ts {
			raw[i] = tr
		}
		cfg := Config{HBMSlots: 4, Channels: 2, Mapping: mapping, Seed: 5, MaxTicks: 50000}
		s, err := New(cfg, ts)
		ref, refErr := RunReference(cfg, ts, nil)
		if verr := trace.Raw("fuzz", raw).Validate(); verr != nil {
			want := "core: " + strings.TrimPrefix(verr.Error(), "trace: ")
			if err == nil || err.Error() != want || refErr == nil || refErr.Error() != want {
				t.Fatalf("shared workload %v: New %v, RunReference %v, want %q", ts, err, refErr, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("disjoint workload %v refused: %v", ts, err)
		}

		dense, origOf, ranges, err := compactTraces(ts)
		if err != nil {
			t.Fatal(err)
		}
		end := model.PageID(0)
		for i, r := range ranges {
			if r.lo != end || r.hi < r.lo {
				t.Fatalf("%v: core %d range [%d, %d) does not start at %d", ts, i, r.lo, r.hi, end)
			}
			end = r.hi
		}
		if int(end) != s.universe || len(s.ownerOf) != s.universe {
			t.Fatalf("%v: ranges end at %d, universe %d, ownerOf covers %d", ts, end, s.universe, len(s.ownerOf))
		}
		seen := make([]bool, s.universe)
		for i, tr := range dense {
			for j, d := range tr {
				if d >= end || s.ownerOf[d] != int32(i) {
					t.Fatalf("%v: core %d references dense page %d, owned by core %d", ts, i, d, s.ownerOf[d])
				}
				if o := s.orig(d); o != ts[i][j] || (origOf != nil && origOf[d] != o) {
					t.Fatalf("%v: dense page %d maps back to %d, not %d", ts, d, o, ts[i][j])
				}
				seen[d] = true
			}
		}
		for pg, ok := range seen {
			if !ok {
				t.Fatalf("%v: no core references dense page %d", ts, pg)
			}
		}
		for s.Step() {
		}
		if got, gotErr := s.Result(), s.Err(); !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(gotErr, refErr) {
			t.Fatalf("%v: Run %+v (%v), RunReference %+v (%v)", ts, got, gotErr, ref, refErr)
		}
	})
}
