package stackdist

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
	"hbmsim/internal/trace"
)

// Distances is the test reference for Streaming and Curve: Mattson's
// LRU stack walked one access at a time. It returns, for each access,
// the 1-based depth of its page in the stack of pages ordered by last
// use (the number of distinct pages referenced since the page's
// previous access, itself included), or -1 for a first touch. It shares
// no code with the package and runs in O(n * distinct pages).
func Distances(tr trace.Trace) []int64 {
	out := make([]int64, len(tr))
	var stack []model.PageID // least recently used first
	for i, p := range tr {
		out[i] = -1
		for j := len(stack) - 1; j >= 0; j-- {
			if stack[j] == p {
				out[i] = int64(len(stack) - j)
				stack = append(stack[:j], stack[j+1:]...)
				break
			}
		}
		stack = append(stack, p)
	}
	return out
}

// refMisses counts the accesses that miss in an LRU cache of k slots
// given their reference distances: every access at k <= 0, else the cold
// ones and those at a distance above k.
func refMisses(ds []int64, k int) uint64 {
	var m uint64
	for _, d := range ds {
		if k <= 0 || d < 0 || d > int64(k) {
			m++
		}
	}
	return m
}

// refQuantile returns the distance at index int(q*(n-1)) of the n sorted
// finite reference distances (the first for q <= 0, the last for
// q >= 1), or 0 when there are none.
func refQuantile(ds []int64, q float64) int64 {
	var fin []int64
	for _, d := range ds {
		if d >= 0 {
			fin = append(fin, d)
		}
	}
	if len(fin) == 0 {
		return 0
	}
	sort.Slice(fin, func(i, j int) bool { return fin[i] < fin[j] })
	switch {
	case q <= 0:
		return fin[0]
	case q >= 1:
		return fin[len(fin)-1]
	}
	return fin[int(q*float64(len(fin)-1))]
}

func TestDistancesHandCases(t *testing.T) {
	tr := trace.Trace{1, 2, 3, 1, 2, 2, 3}
	// 1: cold; 2: cold; 3: cold; 1: {2,3}+self = 3; 2: {3,1}+self = 3;
	// 2: self = 1; 3: {1,2}+self = 3.
	want := []int64{-1, -1, -1, 3, 3, 1, 3}
	got := Distances(tr)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distances: got %v, want %v", got, want)
		}
	}
}

func TestDistancesEmpty(t *testing.T) {
	if len(Distances(nil)) != 0 {
		t.Fatal("empty trace should give empty distances")
	}
}

// lruMisses simulates a real LRU cache of size k.
func lruMisses(tr trace.Trace, k int) uint64 {
	pol := replacement.MustNew(replacement.LRU, 0)
	var misses uint64
	for _, p := range tr {
		if pol.Contains(p) {
			pol.Touch(p)
			continue
		}
		misses++
		if pol.Len() == k {
			pol.Evict()
		}
		pol.Insert(p)
		pol.Touch(p)
	}
	return misses
}

// TestCurveMatchesLRUSimulation is the defining property of stack
// distances: Curve.Misses(k) equals a real LRU simulation at size k, for
// every k, on arbitrary traces.
func TestCurveMatchesLRUSimulation(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		tr := make(trace.Trace, len(raw))
		for i, b := range raw {
			tr[i] = model.PageID(b % 16)
		}
		c := CurveOf(tr)
		for _, k := range []int{1, 2, 3, 5, 8, 16, int(kRaw%20) + 1} {
			if c.Misses(k) != lruMisses(tr, k) {
				t.Fatalf("k=%d: curve %d, simulation %d (trace %v)",
					k, c.Misses(k), lruMisses(tr, k), tr)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCurveBasics(t *testing.T) {
	tr := trace.Trace{1, 2, 1, 2, 1, 2}
	c := CurveOf(tr)
	if c.Total() != 6 || c.Unique() != 2 {
		t.Fatalf("total/unique: %d/%d", c.Total(), c.Unique())
	}
	if c.Misses(0) != 6 {
		t.Errorf("k=0 should miss everything, got %d", c.Misses(0))
	}
	if c.Misses(2) != 2 {
		t.Errorf("k=2 should have only cold misses, got %d", c.Misses(2))
	}
	if c.Misses(1) != 6 {
		t.Errorf("k=1 thrashes on an alternating trace, got %d", c.Misses(1))
	}
	if c.MissRatio(2) != 2.0/6.0 {
		t.Errorf("miss ratio: %g", c.MissRatio(2))
	}
}

func TestCurveMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := make(trace.Trace, 2000)
	for i := range tr {
		tr[i] = model.PageID(rng.Intn(64))
	}
	c := CurveOf(tr)
	prev := c.Misses(0)
	for k := 1; k <= 70; k++ {
		m := c.Misses(k)
		if m > prev {
			t.Fatalf("miss curve not non-increasing at k=%d: %d > %d", k, m, prev)
		}
		prev = m
	}
	if c.Misses(64) != uint64(c.Unique()) {
		t.Fatalf("full-size cache should see only cold misses: %d vs %d", c.Misses(64), c.Unique())
	}
}

func TestDistanceQuantile(t *testing.T) {
	tr := trace.Trace{1, 1, 1, 1} // distances -1, 1, 1, 1
	c := CurveOf(tr)
	if c.DistanceQuantile(0.5) != 1 || c.DistanceQuantile(0) != 1 || c.DistanceQuantile(1) != 1 {
		t.Fatalf("quantiles of constant distances wrong")
	}
	empty := CurveOf(trace.Trace{5})
	if empty.DistanceQuantile(0.5) != 0 {
		t.Fatal("no-reuse trace should report 0")
	}
}

func TestEmptyCurve(t *testing.T) {
	c := CurveOf(nil)
	if c.MissRatio(4) != 0 || c.Misses(4) != 0 {
		t.Fatal("empty curve should report zeros")
	}
}

func TestOptimalPartitionPrefersHeavyReuser(t *testing.T) {
	// Core A cycles through 4 pages repeatedly (benefits hugely from 4
	// slots); core B streams unique pages (benefits from nothing).
	var a, b trace.Trace
	for r := 0; r < 50; r++ {
		for p := model.PageID(0); p < 4; p++ {
			a = append(a, p)
		}
	}
	for i := 0; i < 200; i++ {
		b = append(b, model.PageID(1000+i))
	}
	curves := []Curve{CurveOf(a), CurveOf(b)}
	alloc, total, err := OptimalPartition(curves, 6)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] < 4 {
		t.Fatalf("partition gave the reuser only %d slots: %v", alloc[0], alloc)
	}
	// Optimal partition: A hits everything after cold (4 misses), B
	// misses all 200.
	if total != 204 {
		t.Fatalf("total misses: got %d, want 204", total)
	}
	even := EvenPartition(curves, 6)
	if even <= total {
		t.Fatalf("even split should be worse here: even %d vs optimal %d", even, total)
	}
}

func TestOptimalPartitionErrors(t *testing.T) {
	if _, _, err := OptimalPartition(nil, -1); err == nil {
		t.Fatal("negative k accepted")
	}
}

func TestOptimalPartitionStopsWhenNoGain(t *testing.T) {
	tr := trace.Trace{1, 2, 1, 2}
	curves := []Curve{CurveOf(tr)}
	alloc, _, err := OptimalPartition(curves, 100)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] > 2 {
		t.Fatalf("allocated %d slots to a 2-page working set", alloc[0])
	}
}

func TestEvenPartitionEmpty(t *testing.T) {
	if EvenPartition(nil, 10) != 0 {
		t.Fatal("no curves should give zero misses")
	}
}

func TestEvenPartitionRemainder(t *testing.T) {
	tr := trace.Trace{1, 2, 1, 2}
	curves := []Curve{CurveOf(tr), CurveOf(trace.Trace{9, 9, 9})}
	// k=3: core 0 gets 2 (1 extra), core 1 gets 1.
	total := EvenPartition(curves, 3)
	if total != 2+1 {
		t.Fatalf("even partition misses: got %d, want 3", total)
	}
}
