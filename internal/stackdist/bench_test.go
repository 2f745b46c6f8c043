package stackdist

import (
	"math/rand"
	"testing"

	"hbmsim/internal/model"
	"hbmsim/internal/trace"
)

func benchTrace(n, pages int) trace.Trace {
	rng := rand.New(rand.NewSource(1))
	tr := make(trace.Trace, n)
	for i := range tr {
		tr[i] = model.PageID(rng.Intn(pages))
	}
	return tr
}

// BenchmarkCurveOf builds a curve from a whole trace: the position and
// distance trees, the last-use map, and the finished curve's counts.
func BenchmarkCurveOf(b *testing.B) {
	tr := benchTrace(1<<16, 1<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CurveOf(tr)
	}
	b.ReportMetric(float64(len(tr))*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

func BenchmarkCurveMisses(b *testing.B) {
	c := CurveOf(benchTrace(1<<16, 1<<10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Misses(i % 2048)
	}
}

func BenchmarkOptimalPartition(b *testing.B) {
	curves := make([]Curve, 16)
	for i := range curves {
		curves[i] = CurveOf(benchTrace(1<<12, 256))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimalPartition(curves, 1024); err != nil {
			b.Fatal(err)
		}
	}
}
