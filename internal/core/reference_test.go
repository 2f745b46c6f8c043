package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hbmsim/internal/model"
)

// TestReferenceEquivalence is the differential test anchoring the
// optimised simulator to the executable specification: on random
// workloads and configurations (all arbiters, replacements, permuters,
// mappings, latencies), Run and RunReference must produce bit-identical
// Results — makespan, every counter, every per-core float.
func TestReferenceEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := genWorkload(rng)
		cfg := genConfig(rng)
		cfg.CollectHistogram = rng.Intn(2) == 0

		fast, fe := Run(cfg, ts)
		slow, se := RunReference(cfg, ts, nil)
		if (fe == nil) != (se == nil) {
			t.Fatalf("seed %d: error mismatch: fast=%v slow=%v", seed, fe, se)
		}
		if fe != nil {
			// Both truncated: the partial tick counts must also agree.
			if fast.Truncated != slow.Truncated {
				t.Fatalf("seed %d: truncation mismatch", seed)
			}
			return true
		}
		// Histograms are pointers; compare contents separately.
		fh, sh := fast.Hist, slow.Hist
		fast.Hist, slow.Hist = nil, nil
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("seed %d (cfg %+v): results diverge:\nfast: %+v\nslow: %+v", seed, cfg, fast, slow)
		}
		if (fh == nil) != (sh == nil) {
			t.Fatalf("seed %d: histogram presence mismatch", seed)
		}
		if fh != nil && !reflect.DeepEqual(fh.Buckets(), sh.Buckets()) {
			t.Fatalf("seed %d: histograms diverge: %v vs %v", seed, fh.Buckets(), sh.Buckets())
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestReferenceEquivalenceContended pits the two implementations against
// each other on larger, heavily contended workloads where the active-set
// optimisation works hardest.
func TestReferenceEquivalenceContended(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const p, pages, refs = 12, 24, 400
	ts := genContended(rng, p, pages, refs)
	for _, cfg := range []Config{
		{HBMSlots: 32, Channels: 1, Arbiter: "fifo"},
		{HBMSlots: 32, Channels: 2, Arbiter: "priority", Permuter: "dynamic", RemapPeriod: 64, Seed: 5},
		{HBMSlots: 48, Channels: 3, Arbiter: "priority", Permuter: "cycle", RemapPeriod: 100, FetchLatency: 3},
		{HBMSlots: 64, Channels: 1, Mapping: MappingDirect, Seed: 7},
		{HBMSlots: 40, Channels: 2, Replacement: "belady"},
	} {
		fast, fe := Run(cfg, ts)
		slow, se := RunReference(cfg, ts, nil)
		if fe != nil || se != nil {
			t.Fatalf("cfg %+v: errors %v / %v", cfg, fe, se)
		}
		fast.Hist, slow.Hist = nil, nil
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("cfg %+v: results diverge:\nfast: %+v\nslow: %+v", cfg, fast, slow)
		}
	}
}

// genContended builds p cores with overlapping-phase cyclic+random refs.
func genContended(rng *rand.Rand, p, pages, refs int) [][]model.PageID {
	ts := make([][]model.PageID, p)
	for i := range ts {
		tr := make([]model.PageID, refs)
		pos := 0
		for j := range tr {
			if rng.Intn(5) == 0 {
				pos = rng.Intn(pages)
			} else {
				pos = (pos + 1) % pages
			}
			tr[j] = model.PageID(i*1000 + pos)
		}
		ts[i] = tr
	}
	return ts
}

// TestAutoCapCoversFetchLatency: under FetchLatency 8 every miss costs
// 9 ticks, so one core streaming 20,000 distinct pages finishes at tick
// 180,000, past the unit-latency cap of 166,152; the automatic cap must
// leave room for it in Run and RunReference alike.
func TestAutoCapCoversFetchLatency(t *testing.T) {
	tr := make([]model.PageID, 20000)
	for i := range tr {
		tr[i] = model.PageID(i)
	}
	ts := [][]model.PageID{tr}
	cfg := Config{HBMSlots: 4, Channels: 1, FetchLatency: 8}
	fast, fe := Run(cfg, ts)
	slow, se := RunReference(cfg, ts, nil)
	for _, r := range []struct {
		name string
		res  *Result
		err  error
	}{{"Run", fast, fe}, {"RunReference", slow, se}} {
		if r.err != nil || r.res.Makespan != 180000 {
			t.Fatalf("%s: err %v, result %+v; want makespan 180000 untruncated", r.name, r.err, r.res)
		}
	}
}
