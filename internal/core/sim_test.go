package core

import (
	"errors"
	"testing"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// traces builds [][]model.PageID from int literals.
func traces(ts ...[]int) [][]model.PageID {
	out := make([][]model.PageID, len(ts))
	for i, t := range ts {
		tr := make([]model.PageID, len(t))
		for j, p := range t {
			// Offset each core into a disjoint page range.
			tr[j] = model.PageID(i*1000 + p)
		}
		out[i] = tr
	}
	return out
}

func mustRun(t *testing.T, cfg Config, ts [][]model.PageID) *Result {
	t.Helper()
	res, err := Run(cfg, ts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		p    int
	}{
		{"no cores", Config{HBMSlots: 4, Channels: 1}, 0},
		{"zero slots", Config{HBMSlots: 0, Channels: 1}, 1},
		{"zero channels", Config{HBMSlots: 4, Channels: 0}, 1},
		{"channels exceed slots", Config{HBMSlots: 2, Channels: 3}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.cfg.withDefaults().Validate(c.p); err == nil {
				t.Fatalf("config %+v with p=%d should be invalid", c.cfg, c.p)
			}
		})
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{HBMSlots: 0, Channels: 1}, traces([]int{0})); err == nil {
		t.Fatal("New should reject k=0")
	}
	if _, err := New(Config{HBMSlots: 4, Channels: 1, Arbiter: "bogus"}, traces([]int{0})); err == nil {
		t.Fatal("New should reject unknown arbiter")
	}
	if _, err := New(Config{HBMSlots: 4, Channels: 1, Replacement: "bogus"}, traces([]int{0})); err == nil {
		t.Fatal("New should reject unknown replacement")
	}
	if _, err := New(Config{HBMSlots: 4, Channels: 1, Permuter: "bogus"}, traces([]int{0})); err == nil {
		t.Fatal("New should reject unknown permuter")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Arbiter != arbiter.FIFO || cfg.Replacement != replacement.LRU || cfg.Permuter != arbiter.Static {
		t.Fatalf("defaults: %+v", cfg)
	}
}

// TestSingleCoreColdMisses verifies the exact tick accounting of §3.1: a
// cold miss with an idle channel takes two ticks (DRAM->HBM, HBM->core).
func TestSingleCoreColdMisses(t *testing.T) {
	res := mustRun(t, Config{HBMSlots: 8, Channels: 1}, traces([]int{0, 1, 2}))
	if res.Makespan != 6 {
		t.Errorf("makespan: got %d, want 6 (2 ticks per cold miss)", res.Makespan)
	}
	if res.Hits != 0 || res.Misses != 3 {
		t.Errorf("hits/misses: got %d/%d, want 0/3", res.Hits, res.Misses)
	}
	if res.ResponseMean != 2 {
		t.Errorf("response mean: got %g, want 2", res.ResponseMean)
	}
	if res.Fetches != 3 || res.Evictions != 0 {
		t.Errorf("fetches/evictions: got %d/%d, want 3/0", res.Fetches, res.Evictions)
	}
}

// TestSingleCoreHits: repeated references to a resident page are served in
// one tick each (w = 1).
func TestSingleCoreHits(t *testing.T) {
	res := mustRun(t, Config{HBMSlots: 8, Channels: 1}, traces([]int{0, 0, 0}))
	if res.Makespan != 4 {
		t.Errorf("makespan: got %d, want 4", res.Makespan)
	}
	if res.Hits != 2 || res.Misses != 1 {
		t.Errorf("hits/misses: got %d/%d, want 2/1", res.Hits, res.Misses)
	}
	if res.ResponseMax != 2 {
		t.Errorf("response max: got %g, want 2", res.ResponseMax)
	}
	if res.HitRate() != 2.0/3.0 {
		t.Errorf("hit rate: got %g", res.HitRate())
	}
}

// TestTwoCoresSerializedChannel: with q=1, the second core's fetch waits a
// tick behind the first (FIFO), so its response time is 3.
func TestTwoCoresSerializedChannel(t *testing.T) {
	res := mustRun(t, Config{HBMSlots: 8, Channels: 1}, traces([]int{0}, []int{1}))
	if res.Makespan != 3 {
		t.Errorf("makespan: got %d, want 3", res.Makespan)
	}
	if res.PerCore[0].Completion != 2 || res.PerCore[1].Completion != 3 {
		t.Errorf("completions: got %d/%d, want 2/3",
			res.PerCore[0].Completion, res.PerCore[1].Completion)
	}
	if res.PerCore[1].ResponseMax != 3 {
		t.Errorf("core 1 response: got %g, want 3", res.PerCore[1].ResponseMax)
	}
}

// TestTwoChannelsParallelFetch: with q=2 both cold misses land together.
func TestTwoChannelsParallelFetch(t *testing.T) {
	res := mustRun(t, Config{HBMSlots: 8, Channels: 2}, traces([]int{0}, []int{1}))
	if res.Makespan != 2 {
		t.Errorf("makespan: got %d, want 2", res.Makespan)
	}
}

// TestEvictionAccounting: k=1 forces an eviction per new page.
func TestEvictionAccounting(t *testing.T) {
	res := mustRun(t, Config{HBMSlots: 1, Channels: 1}, traces([]int{0, 1, 0}))
	if res.Makespan != 6 {
		t.Errorf("makespan: got %d, want 6", res.Makespan)
	}
	if res.Fetches != 3 || res.Evictions != 2 {
		t.Errorf("fetches/evictions: got %d/%d, want 3/2", res.Fetches, res.Evictions)
	}
	if res.Misses != 3 {
		t.Errorf("misses: got %d, want 3 (page 0 was evicted before reuse)", res.Misses)
	}
}

// TestPriorityOrdersCores: under static Priority with q=1 and contended
// pages, core 0 always finishes first.
func TestPriorityOrdersCores(t *testing.T) {
	ts := traces([]int{0, 1, 2, 3}, []int{0, 1, 2, 3}, []int{0, 1, 2, 3})
	res := mustRun(t, Config{HBMSlots: 12, Channels: 1, Arbiter: arbiter.Priority}, ts)
	if !(res.PerCore[0].Completion <= res.PerCore[1].Completion &&
		res.PerCore[1].Completion <= res.PerCore[2].Completion) {
		t.Errorf("priority completions not ordered: %v", res.PerCore)
	}
}

// TestLivelockTruncates documents the literal model's livelock when k is
// within q of the contended working set: the run hits the automatic cap
// and reports a TruncatedError with a partial result.
func TestLivelockTruncates(t *testing.T) {
	res, err := Run(Config{HBMSlots: 1, Channels: 1, MaxTicks: 500}, traces([]int{0}, []int{1}))
	if err == nil {
		t.Fatal("expected truncation error")
	}
	var te *TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("want *TruncatedError, got %T: %v", err, err)
	}
	if te.Ticks != 500 || te.Unfinished != 2 {
		t.Errorf("truncation detail: %+v", te)
	}
	if res == nil || !res.Truncated {
		t.Fatalf("partial result missing or not marked truncated: %+v", res)
	}
	if te.Error() == "" {
		t.Error("TruncatedError message empty")
	}
}

// TestErrNamesCapAndUnfinishedCores: a run truncated at its automatic cap
// reports that cap, 8*(2+1) + 1024*(3+1+1) = 5144 ticks for this
// workload, and counts only the cores with references left: the
// empty-trace core finished at New, though its Completion is 0 like the
// unfinished ones'.
func TestErrNamesCapAndUnfinishedCores(t *testing.T) {
	s, err := New(Config{HBMSlots: 1, Channels: 1}, traces([]int{}, []int{0}, []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err before the run = %v", err)
	}
	for s.Step() {
	}
	var te *TruncatedError
	if !errors.As(s.Err(), &te) {
		t.Fatalf("want *TruncatedError, got %v", s.Err())
	}
	if te.Ticks != 5144 || te.Unfinished != 2 {
		t.Fatalf("truncation detail %+v, want the cap 5144 and 2 unfinished cores", te)
	}
	if res := s.Result(); !res.Truncated || res.Makespan != 0 {
		t.Fatalf("partial result: %+v", res)
	}
}

func TestEmptyTraces(t *testing.T) {
	res := mustRun(t, Config{HBMSlots: 4, Channels: 1}, [][]model.PageID{nil, nil})
	if res.Makespan != 0 || res.TotalRefs != 0 {
		t.Fatalf("all-empty workload: %+v", res)
	}
}

func TestMixedEmptyTraces(t *testing.T) {
	res := mustRun(t, Config{HBMSlots: 4, Channels: 1}, [][]model.PageID{nil, {7}})
	if res.Makespan != 2 {
		t.Errorf("makespan: got %d, want 2", res.Makespan)
	}
	if res.PerCore[0].Refs != 0 || res.PerCore[0].Completion != 0 {
		t.Errorf("empty core stats: %+v", res.PerCore[0])
	}
}

func TestRemapCounting(t *testing.T) {
	// Cycle permuter every 2 ticks; count remaps = floor(makespan / 2).
	ts := traces([]int{0, 1, 2, 3, 4})
	res := mustRun(t, Config{
		HBMSlots: 8, Channels: 1,
		Arbiter: arbiter.Priority, Permuter: arbiter.Cycle, RemapPeriod: 2,
	}, ts)
	want := uint64(res.Makespan) / 2
	if res.Remaps != want {
		t.Errorf("remaps: got %d, want %d (makespan %d)", res.Remaps, want, res.Makespan)
	}
}

func TestNoRemapWhenPeriodZero(t *testing.T) {
	res := mustRun(t, Config{
		HBMSlots: 8, Channels: 1,
		Arbiter: arbiter.Priority, Permuter: arbiter.Dynamic, RemapPeriod: 0,
	}, traces([]int{0, 1}, []int{0, 1}))
	if res.Remaps != 0 {
		t.Errorf("remaps with period 0: got %d", res.Remaps)
	}
}

func TestHistogramCollection(t *testing.T) {
	res := mustRun(t, Config{HBMSlots: 8, Channels: 1, CollectHistogram: true},
		traces([]int{0, 0, 1}))
	if res.Hist == nil {
		t.Fatal("histogram missing")
	}
	if res.Hist.Total() != res.TotalRefs {
		t.Errorf("histogram total %d != refs %d", res.Hist.Total(), res.TotalRefs)
	}
	res2 := mustRun(t, Config{HBMSlots: 8, Channels: 1}, traces([]int{0}))
	if res2.Hist != nil {
		t.Error("histogram should be nil when not requested")
	}
}

func TestStepwiseAPI(t *testing.T) {
	s, err := New(Config{HBMSlots: 8, Channels: 1}, traces([]int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if s.Done() {
		t.Fatal("fresh sim should not be done")
	}
	steps := 0
	last := model.Tick(0)
	for s.Step() {
		steps++
		// A Step may jump several ticks, but never zero or
		// backwards, and never more Steps than ticks.
		if tk := s.Tick(); tk <= last {
			t.Fatalf("tick counter did not advance: %d after %d", tk, last)
		} else {
			last = tk
		}
		if model.Tick(steps) > last {
			t.Fatalf("more steps (%d) than ticks (%d)", steps, last)
		}
	}
	if !s.Done() {
		t.Fatal("sim should be done after Step returns false")
	}
	if s.Step() {
		t.Fatal("Step after done should return false")
	}
	res := s.Result()
	if res.Makespan != 4 {
		t.Fatalf("stepwise makespan: got %d, want 4", res.Makespan)
	}
}

func TestChannelUtilization(t *testing.T) {
	res := mustRun(t, Config{HBMSlots: 8, Channels: 1}, traces([]int{0, 1, 2}))
	// 3 fetches over 6 ticks on 1 channel.
	if res.ChannelUtilization != 0.5 {
		t.Errorf("utilization: got %g, want 0.5", res.ChannelUtilization)
	}
}

func TestQueueLengthSampling(t *testing.T) {
	// Two cores, q=1: queue holds the second request during tick 1 only.
	res := mustRun(t, Config{HBMSlots: 8, Channels: 1}, traces([]int{0}, []int{1}))
	want := 1.0 / 3.0
	if diff := res.AvgQueueLen - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("avg queue length: got %g, want %g", res.AvgQueueLen, want)
	}
}

func TestResultString(t *testing.T) {
	res := mustRun(t, Config{HBMSlots: 8, Channels: 1}, traces([]int{0}))
	if res.String() == "" {
		t.Error("Result.String empty")
	}
}

func TestJainFairness(t *testing.T) {
	// Perfectly symmetric cores: index 1.
	res := mustRun(t, Config{HBMSlots: 8, Channels: 2}, traces([]int{0, 0}, []int{1, 1}))
	if j := res.JainFairness(); j != 1 {
		t.Errorf("symmetric fairness: got %g, want 1", j)
	}
	// Static priority on the adversarial trace starves the low core:
	// fairness strictly below 1.
	ts := traces(
		[]int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3},
		[]int{4, 5, 6, 7, 4, 5, 6, 7, 4, 5, 6, 7},
		[]int{8, 9, 10, 11, 8, 9, 10, 11, 8, 9, 10, 11},
	)
	prio := mustRun(t, Config{HBMSlots: 4, Channels: 1, Arbiter: arbiter.Priority}, ts)
	if j := prio.JainFairness(); j >= 1 || j <= 0 {
		t.Errorf("starved fairness: got %g, want in (0, 1)", j)
	}
	// Empty run: 0.
	empty := mustRun(t, Config{HBMSlots: 4, Channels: 1}, [][]model.PageID{nil})
	if empty.JainFairness() != 0 {
		t.Errorf("empty fairness: got %g", empty.JainFairness())
	}
}

func TestJainFairnessOrdering(t *testing.T) {
	// Dynamic Priority must be at least as fair as static Priority on a
	// contended cyclic workload (the whole point of remapping).
	const p, pages, reps = 8, 16, 12
	ts := make([][]model.PageID, p)
	for i := range ts {
		for r := 0; r < reps; r++ {
			for pg := 0; pg < pages; pg++ {
				ts[i] = append(ts[i], model.PageID(i*100+pg))
			}
		}
	}
	k := p * pages / 4
	static := mustRun(t, Config{HBMSlots: k, Channels: 1, Arbiter: arbiter.Priority, Seed: 2}, ts)
	dynamic := mustRun(t, Config{
		HBMSlots: k, Channels: 1, Arbiter: arbiter.Priority,
		Permuter: arbiter.Dynamic, RemapPeriod: model.Tick(k), Seed: 2,
	}, ts)
	if dynamic.JainFairness() < static.JainFairness() {
		t.Errorf("dynamic fairness %g below static %g", dynamic.JainFairness(), static.JainFairness())
	}
}
