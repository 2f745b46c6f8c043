package experiments

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"hbmsim/internal/core"
	"hbmsim/internal/membackend"
	"hbmsim/internal/sweep"
	"hbmsim/internal/trace"
)

// tiny returns miniature options so every experiment runs in well under a
// second; the point is end-to-end exercise, not paper-shape assertions
// (those live in the root package's paper_test.go and in the benchmarks).
func tiny() Options {
	return Options{
		SortN:            400,
		SpGEMMN:          24,
		SpGEMMDensity:    0.15,
		PageBytes:        64,
		Threads:          []int{2, 4, 8},
		HBMSlots:         []int{32, 128},
		RemapMultipliers: []float64{1, 10},
		DynamicT:         10,
		Channels:         1,
		TradeoffThreads:  8,
		TradeoffSlots:    64,
		Seed:             1,
	}
}

// TestIDsUniqueInPaperOrder pins the registry's order: every id once,
// the paper's own figures and tables first, in the paper's order (§4,
// then §5), and every ablation, extension and analysis after them.
// cmd/hbmsweep's TestExperimentsDocMatchesRegistry holds EXPERIMENTS.md
// to the same order.
func TestIDsUniqueInPaperOrder(t *testing.T) {
	ids := IDs()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("id %q registered twice: %v", id, ids)
		}
		seen[id] = true
	}
	paper := []string{
		"fig2a", "fig2b", "fig3", "fig4a", "fig4b", "fig5a", "fig5b",
		"table1a", "table1b", "table2a", "table2b", "fig6", "knl-properties",
	}
	if len(ids) < len(paper) || !slices.Equal(ids[:len(paper)], paper) {
		t.Fatalf("ids do not open with the paper's artifacts in order:\ngot  %v\nwant %v first", ids, paper)
	}
	for _, want := range []string{
		"channels", "replacement", "permuters", "imbalance", "directmap",
		"mapping", "offline", "augmentation", "latency", "backends",
		"missratio", "responsecdf", "timeline", "variance", "optgap",
	} {
		if !seen[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := Run("nope", tiny()); err == nil {
		t.Fatal("Run with unknown id accepted")
	}
}

func TestOptionsValidate(t *testing.T) {
	ok := tiny()
	if err := ok.Validate(); err != nil {
		t.Fatalf("tiny options invalid: %v", err)
	}
	bad := tiny()
	bad.SortN = 0
	if err := bad.Validate(); err == nil {
		t.Error("SortN=0 accepted")
	}
	bad = tiny()
	bad.Threads = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty thread axis accepted")
	}
	bad = tiny()
	bad.Threads = []int{0}
	if err := bad.Validate(); err == nil {
		t.Error("zero thread count accepted")
	}
	bad = tiny()
	bad.HBMSlots = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty HBM axis accepted")
	}
	bad = tiny()
	bad.HBMSlots = []int{0}
	if err := bad.Validate(); err == nil {
		t.Error("HBM size below channels accepted")
	}
	bad = tiny()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero channels accepted")
	}
	bad = tiny()
	bad.TradeoffThreads = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero tradeoff threads accepted")
	}
	bad = tiny()
	bad.TradeoffSlots = bad.Channels - 1
	if err := bad.Validate(); err == nil {
		t.Error("tradeoff HBM size below channels accepted")
	}
	bad = tiny()
	bad.Backend = membackend.Config{Kind: "warp-drive"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestBackendOverride pins the hbmsweep -backend plumbing: Options.Backend
// reaches every job that did not choose its own backend, on the sweep
// path and the observed-run path alike, and leaves explicit choices (the
// backends experiment) alone.
func TestBackendOverride(t *testing.T) {
	o := tiny()
	o.Backend = membackend.Config{Kind: membackend.Bandwidth}
	jobs := []sweep.Job{
		{Name: "defaulted", Config: core.Config{HBMSlots: 8, Channels: 1}},
		{Name: "explicit", Config: core.Config{HBMSlots: 8, Channels: 1,
			Backend: membackend.Config{Kind: membackend.Hybrid}}},
	}
	o.applyBackend(jobs)
	if jobs[0].Config.Backend.Kind != membackend.Bandwidth {
		t.Errorf("defaulted job backend = %q, want bandwidth", jobs[0].Config.Backend.Kind)
	}
	if jobs[1].Config.Backend.Kind != membackend.Hybrid {
		t.Errorf("explicit job backend = %q, want hybrid (override must not clobber it)", jobs[1].Config.Backend.Kind)
	}

	// End to end: every experiment that simulates under the default model
	// prints other tables under the override than outcomes.golden holds
	// for it at tiny(). The rest do not simulate, or (missratio) read only
	// the traces, or (backends) pick their own. -short runs fig2a on the
	// sweep path and timeline and optgap on the observed-run path.
	golden := readGolden(t)
	unaffected := map[string]bool{
		"table2a": true, "table2b": true, "fig6": true, "knl-properties": true,
		"directmap": true, "missratio": true, "backends": true,
	}
	ids := []string{"fig2a", "timeline", "optgap"}
	if !testing.Short() {
		ids = IDs()
	}
	for _, id := range ids {
		want, ok := golden[id]
		if !ok {
			t.Fatalf("%s: no section in %s", id, goldenPath)
		}
		over, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s under the bandwidth backend: %v", id, err)
		}
		got := strings.TrimSuffix(tablesCSV(t, over), "\n")
		if differ := got != goldenTables(want); differ == unaffected[id] {
			t.Errorf("%s: tables differ under the bandwidth backend = %v, want %v", id, differ, !unaffected[id])
		}
	}
}

// TestTruncatedRunFailsItsExperiment: a run that hits the tick cap fails
// its experiment on the sweep path (fig5a, variance's replicated sweep)
// and on the observed-run path (timeline, optgap). One slot on one
// channel livelocks the model: a landed page is evicted before its core
// is served.
func TestTruncatedRunFailsItsExperiment(t *testing.T) {
	o := tiny()
	o.TradeoffSlots, o.Channels = 1, 1
	for _, id := range []string{"fig5a", "variance", "timeline", "optgap"} {
		_, err := Run(id, o)
		var trunc *core.TruncatedError
		if !errors.As(err, &trunc) {
			t.Errorf("%s: err = %v, want a *core.TruncatedError", id, err)
		}
	}
}

// TestObservedRunHonoursCancellation: a cancelled context stops the
// observed-run path before it simulates, as it stops a sweep's
// undispatched jobs.
func TestObservedRunHonoursCancellation(t *testing.T) {
	o := tiny()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o.Ctx = ctx
	for _, id := range []string{"timeline", "optgap"} {
		if _, err := Run(id, o); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", id, err)
		}
	}
}

func TestDefaultAndFullOptionsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	if err := Full().Validate(); err != nil {
		t.Fatalf("full options invalid: %v", err)
	}
	if Full().SortN != 500000 || Full().SpGEMMN != 600 {
		t.Error("full options should use the paper's sizes")
	}
}

// TestEveryExperimentRunsEndToEnd exercises the whole registry at tiny
// scale, checks the Outcome contract and holds each outcome's headline
// and tables to its section of outcomes.golden.
func TestEveryExperimentRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	o := tiny()
	golden := readGolden(t)
	if !*update && len(golden) != len(IDs()) {
		t.Errorf("%s holds %d experiments, registry has %d", goldenPath, len(golden), len(IDs()))
	}
	var mu sync.Mutex
	got := map[string]string{}
	if *update {
		t.Cleanup(func() { writeGolden(t, got) })
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			out, err := Run(id, o)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if out.ID != id {
				t.Errorf("outcome id %q != %q", out.ID, id)
			}
			if out.Title == "" || out.PaperClaim == "" || out.Headline == "" {
				t.Errorf("outcome incomplete: %+v", out)
			}
			if len(out.Tables) == 0 {
				t.Errorf("no tables produced")
			}
			for _, tbl := range out.Tables {
				if tbl.Len() == 0 {
					t.Errorf("empty table %q", tbl.Title)
				}
			}
			if len(out.Series) > 0 && out.ChartTitle == "" {
				t.Errorf("series without a chart title")
			}
			section := goldenSection(t, out)
			if *update {
				mu.Lock()
				got[id] = section
				mu.Unlock()
			} else if want := golden[id]; strings.TrimSuffix(section, "\n") != want {
				t.Errorf("%s drifted from %s:\ngot:\n%s\nwant:\n%s", id, goldenPath, section, want)
			}
		})
	}
}

// TestWorkloadsBuildPrefixes: core i's trace depends only on the seed and
// on i, so building p cores gives the first p cores of a larger build.
// The tradeoff-point experiments build only the cores they simulate on
// the strength of it, and the Figure 2/4 study takes prefixes of its
// largest build.
func TestWorkloadsBuildPrefixes(t *testing.T) {
	o := tiny()
	builders := map[string]func(Options, int) (*trace.Workload, error){
		"sort": sortWorkload, "spgemm": spgemmWorkload,
	}
	for name, build := range builders {
		all, err := build(o, o.TradeoffThreads)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 3} {
			got, err := build(o, p)
			if err != nil {
				t.Fatal(err)
			}
			want := all.Subset(p)
			if got.Name != want.Name || !slices.EqualFunc(got.Traces, want.Traces, slices.Equal) {
				t.Errorf("%s on %d cores is not the first %d of %d cores", name, p, p, o.TradeoffThreads)
			}
		}
	}
}

// TestFig3RequiresEnoughThreads: the adversarial sizing needs p >= 4.
func TestFig3RequiresEnoughThreads(t *testing.T) {
	o := tiny()
	o.Threads = []int{2}
	if _, err := Run("fig3", o); err == nil {
		t.Fatal("fig3 with p<4 should error")
	}
}

// TestExperimentsRejectBadOptions: Run validates the options before any
// experiment starts, the KNL model runs and optgap included.
func TestExperimentsRejectBadOptions(t *testing.T) {
	bad := tiny()
	bad.SortN = -1
	for _, id := range IDs() {
		if _, err := Run(id, bad); err == nil {
			t.Errorf("%s accepted invalid options", id)
		}
	}
}

func TestTradeoffSchemesShape(t *testing.T) {
	o := tiny()
	schemes := tradeoffSchemes(o)
	// FIFO + 2 dynamic + 2 cycle + static priority.
	if len(schemes) != 6 {
		t.Fatalf("schemes: %d", len(schemes))
	}
	if schemes[0].name != "FIFO" || schemes[len(schemes)-1].name != "Priority" {
		t.Fatalf("scheme order wrong: %v", schemes)
	}
	for _, sc := range schemes[1:5] {
		if !strings.Contains(sc.name, "Priority T=") {
			t.Errorf("middle scheme name: %q", sc.name)
		}
	}
}
