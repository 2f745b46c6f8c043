package stackdist

import (
	"math/rand"
	"testing"

	"hbmsim/internal/model"
	"hbmsim/internal/trace"
)

func TestStreamingHandCases(t *testing.T) {
	tr := trace.Trace{1, 2, 3, 1, 2, 2, 3}
	want := []int64{-1, -1, -1, 3, 3, 1, 3}
	s := NewStreaming()
	for i, p := range tr {
		if got := s.Observe(p); got != want[i] {
			t.Fatalf("access %d (page %d): distance %d, want %d", i, p, got, want[i])
		}
	}
	if s.Total() != 7 || s.Unique() != 3 || s.Misses(3) != 3 {
		t.Fatalf("aggregates: total=%d unique=%d misses(3)=%d",
			s.Total(), s.Unique(), s.Misses(3))
	}
}

// TestStreamingFirstTouches pins the all-cold edge case: a trace of
// distinct pages has no finite distances, misses everywhere, and a zero
// quantile.
func TestStreamingFirstTouches(t *testing.T) {
	s := NewStreaming()
	const n = 100
	for i := 0; i < n; i++ {
		if d := s.Observe(model.PageID(i)); d != -1 {
			t.Fatalf("first touch of page %d: distance %d, want -1", i, d)
		}
	}
	if s.Total() != n || s.Unique() != n {
		t.Fatalf("total=%d unique=%d, want %d each", s.Total(), s.Unique(), n)
	}
	for _, k := range []int{0, 1, 50, 1000} {
		if got := s.Misses(k); got != n {
			t.Fatalf("Misses(%d) = %d, want %d (cold accesses miss at every size)", k, got, n)
		}
	}
	if q := s.DistanceQuantile(0.9); q != 0 {
		t.Fatalf("quantile with no reuses: %d, want 0", q)
	}
}

// TestStreamingSamePageRun pins the tightest-reuse edge case: hammering
// one page yields distance 1 on every access after the first, hitting in
// any cache of size >= 1.
func TestStreamingSamePageRun(t *testing.T) {
	s := NewStreaming()
	const n = 1000
	for i := 0; i < n; i++ {
		want := int64(1)
		if i == 0 {
			want = -1
		}
		if d := s.Observe(7); d != want {
			t.Fatalf("access %d: distance %d, want %d", i, d, want)
		}
	}
	if got := s.Misses(1); got != 1 {
		t.Fatalf("Misses(1) = %d, want 1 (only the cold touch)", got)
	}
	if got := s.MissRatio(1); got != 1.0/n {
		t.Fatalf("MissRatio(1) = %g, want %g", got, 1.0/n)
	}
	if q := s.DistanceQuantile(0.5); q != 1 {
		t.Fatalf("median distance %d, want 1", q)
	}
}

// TestStreamingBeyondCapacity pins behaviour when reuse distances exceed
// the cache size being queried: a cyclic scan over w pages has every
// reuse at distance w, so a cache one slot short of w catches nothing.
func TestStreamingBeyondCapacity(t *testing.T) {
	const w, laps = 64, 8
	s := NewStreaming()
	for lap := 0; lap < laps; lap++ {
		for p := 0; p < w; p++ {
			d := s.Observe(model.PageID(p))
			if lap == 0 {
				if d != -1 {
					t.Fatalf("lap 0 page %d: distance %d, want -1", p, d)
				}
			} else if d != w {
				t.Fatalf("lap %d page %d: distance %d, want %d", lap, p, d, w)
			}
		}
	}
	if got, want := s.Misses(w-1), uint64(w*laps); got != want {
		t.Fatalf("Misses(%d) = %d, want %d (every access misses below the loop size)", w-1, got, want)
	}
	if got, want := s.Misses(w), uint64(w); got != want {
		t.Fatalf("Misses(%d) = %d, want %d (only cold misses at the loop size)", w, got, want)
	}
	if got := s.Misses(w * 10); got != w {
		t.Fatalf("Misses(%d) = %d, want %d (far beyond the largest distance)", w*10, got, w)
	}
}

// TestStreamingMatchesBatch is the defining differential property: an
// access-by-access replay through Streaming, and CurveOf over the whole
// trace, report exactly the distances, misses, and quantiles the Mattson
// reference Distances gives, on random traces long enough to force the
// position tree to regrow.
func TestStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct {
		name     string
		n, pages int
	}{
		{"small", 200, 16},
		{"dense-reuse", 3000, 8},
		{"sparse", 3000, 2500},
		{"regrow", 5000, 300}, // crosses the 1024 and 2048 position capacities
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			tr := make(trace.Trace, sh.n)
			for i := range tr {
				tr[i] = model.PageID(rng.Intn(sh.pages))
			}
			checkAgainstReference(t, tr)
		})
	}
}

// checkAgainstReference compares a Streaming fed tr access by access, and
// CurveOf(tr), with what the reference Distances gives for tr: each
// access's distance, the totals, Misses and MissRatio at every k from 0
// to the distinct-page count plus 1, and DistanceQuantile inside and
// outside [0, 1].
func checkAgainstReference(t *testing.T, tr trace.Trace) {
	t.Helper()
	ref := Distances(tr)
	s := NewStreaming()
	for i, p := range tr {
		if d := s.Observe(p); d != ref[i] {
			t.Fatalf("access %d: streaming distance %d, reference %d", i, d, ref[i])
		}
	}
	unique := int(refMisses(ref, len(tr)+1))
	for name, c := range map[string]Curve{"Streaming": s.Curve, "CurveOf": CurveOf(tr)} {
		if c.Total() != uint64(len(tr)) || c.Unique() != unique {
			t.Fatalf("%s: total=%d unique=%d, reference total=%d unique=%d",
				name, c.Total(), c.Unique(), len(tr), unique)
		}
		for k := 0; k <= unique+1; k++ {
			want := refMisses(ref, k)
			if got := c.Misses(k); got != want {
				t.Fatalf("%s: Misses(%d) = %d, reference %d", name, k, got, want)
			}
			wantRatio := 0.0
			if len(tr) > 0 {
				wantRatio = float64(want) / float64(len(tr))
			}
			if got := c.MissRatio(k); got != wantRatio {
				t.Fatalf("%s: MissRatio(%d) = %g, reference %g", name, k, got, wantRatio)
			}
		}
		for _, q := range []float64{-0.5, 0, 0.1, 0.5, 0.9, 0.99, 1, 1.5} {
			if got, want := c.DistanceQuantile(q), refQuantile(ref, q); got != want {
				t.Fatalf("%s: DistanceQuantile(%g) = %d, reference %d", name, q, got, want)
			}
		}
	}
}

// TestPooledDistanceQuantile checks the pooled quantile over several
// curves against the reference quantile of their concatenated distances.
func TestPooledDistanceQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var curves []Curve
	var all []int64
	for i, pages := range []int{3, 40, 1500} {
		tr := make(trace.Trace, 2000*(i+1))
		for j := range tr {
			tr[j] = model.PageID(rng.Intn(pages))
		}
		curves = append(curves, CurveOf(tr))
		all = append(all, Distances(tr)...)
	}
	for _, q := range []float64{-0.5, 0, 0.1, 0.5, 0.9, 0.99, 1, 1.5} {
		if got, want := DistanceQuantile(curves, q), refQuantile(all, q); got != want {
			t.Fatalf("pooled DistanceQuantile(%g) = %d, reference %d", q, got, want)
		}
	}
	if got := DistanceQuantile(nil, 0.5); got != 0 {
		t.Fatalf("no curves: quantile %d, want 0", got)
	}
}

// FuzzCurve holds Streaming and CurveOf to the Mattson reference on
// arbitrary traces; each input byte is one access to one of 256 pages.
func FuzzCurve(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 64)) // one page repeated
	long := make([]byte, 3000)
	rand.New(rand.NewSource(1)).Read(long)
	f.Add(long) // regrows the position tree past 1024 and 2048
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr := make(trace.Trace, len(raw))
		for i, b := range raw {
			tr[i] = model.PageID(b)
		}
		checkAgainstReference(t, tr)
	})
}

// TestStreamingEmpty pins the before-first-access state.
func TestStreamingEmpty(t *testing.T) {
	s := NewStreaming()
	if s.Total() != 0 || s.Unique() != 0 || s.Misses(4) != 0 || s.MissRatio(4) != 0 ||
		s.DistanceQuantile(0.9) != 0 {
		t.Fatal("empty tracker should report zeros everywhere")
	}
}

func BenchmarkStreamingQueries(b *testing.B) {
	s := NewStreaming()
	for _, p := range benchTrace(1<<16, 1<<10) {
		s.Observe(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Misses(i % 2048)
		s.DistanceQuantile(0.9)
	}
}
