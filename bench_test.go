// bench_test.go regenerates every table and figure of the paper's
// evaluation as a testing.B benchmark: one benchmark per artifact, each
// running the corresponding experiment end-to-end (workload generation,
// sweep, metric extraction) at bench scale. Run with
//
//	go test -bench=. -benchmem
//
// Use cmd/hbmsweep for the full-size tables themselves (`-exp all` runs
// every one); the benchmarks exist to time the harness and to pin each
// artifact to a reproducible entry point.
package hbmsim_test

import (
	"testing"

	"hbmsim/internal/experiments"
)

// benchOptions shrinks the grid so one experiment run takes on the order
// of a second while keeping every regime (plentiful and scarce HBM,
// uncontended and saturated channel) represented.
func benchOptions() experiments.Options {
	return experiments.Options{
		SortN:            2000,
		SpGEMMN:          48,
		SpGEMMDensity:    0.10,
		PageBytes:        64,
		Threads:          []int{4, 8, 16, 32},
		HBMSlots:         []int{100, 400},
		RemapMultipliers: []float64{1, 10},
		DynamicT:         10,
		Channels:         1,
		TradeoffThreads:  24,
		TradeoffSlots:    300,
		Seed:             1,
	}
}

// benchExperiment runs one named experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	o := benchOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run(id, o)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(out.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// Figure 2: FIFO vs static Priority makespan ratios across thread counts
// and HBM sizes.
func BenchmarkFigure2aSpGEMM(b *testing.B) { benchExperiment(b, "fig2a") }
func BenchmarkFigure2bSort(b *testing.B)   { benchExperiment(b, "fig2b") }

// Figure 3: the adversarial cyclic trace where FIFO's makespan blows up
// linearly in the thread count.
func BenchmarkFigure3Adversarial(b *testing.B) { benchExperiment(b, "fig3") }

// Figure 4: FIFO vs Dynamic Priority (T = 10k).
func BenchmarkFigure4aSpGEMM(b *testing.B) { benchExperiment(b, "fig4a") }
func BenchmarkFigure4bSort(b *testing.B)   { benchExperiment(b, "fig4b") }

// Figure 5: the inconsistency/makespan trade-off across schemes and T.
func BenchmarkFigure5aTradeoff(b *testing.B) { benchExperiment(b, "fig5a") }
func BenchmarkFigure5bTradeoff(b *testing.B) { benchExperiment(b, "fig5b") }

// Table 1: inconsistency and average response time per queuing policy.
func BenchmarkTable1aSpGEMM(b *testing.B) { benchExperiment(b, "table1a") }
func BenchmarkTable1bSort(b *testing.B)   { benchExperiment(b, "table1b") }

// Table 2 and Figure 6: the KNL machine-model microbenchmarks (§5).
func BenchmarkTable2aLatency(b *testing.B)      { benchExperiment(b, "table2a") }
func BenchmarkTable2bGLUPS(b *testing.B)        { benchExperiment(b, "table2b") }
func BenchmarkFigure6PointerChase(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkKNLProperties(b *testing.B)       { benchExperiment(b, "knl-properties") }

// Ablations from the paper's parameter sweep (§1.2) and theory (§2).
func BenchmarkAblationChannels(b *testing.B)     { benchExperiment(b, "channels") }
func BenchmarkAblationReplacement(b *testing.B)  { benchExperiment(b, "replacement") }
func BenchmarkAblationPermuters(b *testing.B)    { benchExperiment(b, "permuters") }
func BenchmarkAblationImbalance(b *testing.B)    { benchExperiment(b, "imbalance") }
func BenchmarkAblationDirectMapped(b *testing.B) { benchExperiment(b, "directmap") }

// Extensions: Corollary 1 in the main simulator, clairvoyant baselines,
// Theorem 2's augmentation, and the miss-ratio-curve analysis.
func BenchmarkAblationMapping(b *testing.B)      { benchExperiment(b, "mapping") }
func BenchmarkAblationOffline(b *testing.B)      { benchExperiment(b, "offline") }
func BenchmarkAblationAugmentation(b *testing.B) { benchExperiment(b, "augmentation") }
func BenchmarkAblationLatency(b *testing.B)      { benchExperiment(b, "latency") }
func BenchmarkAnalysisMissRatio(b *testing.B)    { benchExperiment(b, "missratio") }
func BenchmarkAnalysisResponseCDF(b *testing.B)  { benchExperiment(b, "responsecdf") }
func BenchmarkAnalysisVariance(b *testing.B)     { benchExperiment(b, "variance") }
