package workloads

import (
	"testing"

	"hbmsim/internal/trace"
)

func BenchmarkSortTraceIntrosort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SortTrace(SortConfig{N: 4000}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpGEMMTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SpGEMMTrace(SpGEMMConfig{N: 64}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdversarialWorkload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AdversarialWorkload(64, AdversarialConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSyntheticZipf(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SyntheticTrace(SyntheticConfig{Kind: Zipfian, Refs: 100000, Pages: 4096}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildWorkload measures whole-workload generation — every
// core's instrumented run, the access log, page mapping and disjoint
// renumbering — at the shapes the end-to-end benchmark simulates, with
// 64-byte pages.
func BenchmarkBuildWorkload(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() (*trace.Workload, error)
	}{
		{"densemm-16x64", func() (*trace.Workload, error) {
			return DenseMMWorkload(16, DenseMMConfig{N: 64, PageBytes: 64}, 1)
		}},
		{"sort-32x8000", func() (*trace.Workload, error) {
			return SortWorkload(32, SortConfig{N: 8000, PageBytes: 64}, 1)
		}},
		{"spgemm-32x96", func() (*trace.Workload, error) {
			return SpGEMMWorkload(32, SpGEMMConfig{N: 96, PageBytes: 64}, 1)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
