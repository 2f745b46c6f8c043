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
	if s.Total() != 7 || s.Unique() != 3 || s.FiniteReuses() != 4 {
		t.Fatalf("aggregates: total=%d unique=%d finite=%d",
			s.Total(), s.Unique(), s.FiniteReuses())
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
	if s.FiniteReuses() != 0 || s.MaxDistance() != 0 {
		t.Fatalf("finite=%d max=%d", s.FiniteReuses(), s.MaxDistance())
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
	if got := s.CountLE(int64(w) * 10); got != s.FiniteReuses() {
		t.Fatalf("CountLE beyond max distance: %d, want all %d reuses", got, s.FiniteReuses())
	}
}

// TestStreamingMatchesBatch is the defining differential property: an
// access-by-access replay through Streaming reports exactly the
// distances, misses, and quantiles of the batch Distances/CurveOf path,
// on random traces long enough to force position-Fenwick regrowth.
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
			batch := Distances(tr)
			curve := CurveOf(tr)
			s := NewStreaming()
			for i, p := range tr {
				if d := s.Observe(p); d != batch[i] {
					t.Fatalf("access %d: streaming distance %d, batch %d", i, d, batch[i])
				}
			}
			if s.Total() != curve.Total() || s.Unique() != curve.Unique() {
				t.Fatalf("aggregates: streaming total=%d unique=%d, batch total=%d unique=%d",
					s.Total(), s.Unique(), curve.Total(), curve.Unique())
			}
			for k := 0; k <= sh.pages+2; k++ {
				if sm, bm := s.Misses(k), curve.Misses(k); sm != bm {
					t.Fatalf("Misses(%d): streaming %d, batch %d", k, sm, bm)
				}
				if sr, br := s.MissRatio(k), curve.MissRatio(k); sr != br {
					t.Fatalf("MissRatio(%d): streaming %g, batch %g", k, sr, br)
				}
			}
			for _, q := range []float64{-0.5, 0, 0.1, 0.5, 0.9, 0.99, 1, 1.5} {
				if sq, bq := s.DistanceQuantile(q), curve.DistanceQuantile(q); sq != bq {
					t.Fatalf("DistanceQuantile(%g): streaming %d, batch %d", q, sq, bq)
				}
			}
		})
	}
}

// TestStreamingEmpty pins the before-first-access state.
func TestStreamingEmpty(t *testing.T) {
	s := NewStreaming()
	if s.Total() != 0 || s.Misses(4) != 0 || s.MissRatio(4) != 0 ||
		s.DistanceQuantile(0.9) != 0 || s.CountLE(10) != 0 {
		t.Fatal("empty tracker should report zeros everywhere")
	}
}

func BenchmarkStreamingObserve(b *testing.B) {
	tr := benchTrace(1<<16, 1<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStreaming()
		for _, p := range tr {
			s.Observe(p)
		}
	}
	b.ReportMetric(float64(len(tr))*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
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
