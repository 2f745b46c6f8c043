// Package experiments regenerates every table and figure of the paper's
// evaluation (§4 and §5), plus the ablations its parameter sweep mentions.
// Each experiment returns an Outcome carrying the measured tables/series
// and the paper's corresponding claim, so callers (cmd/hbmsweep, the
// hbmserved experiment jobs, the benchmark harness, EXPERIMENTS.md) can
// compare shapes directly.
//
// Workload sizes are scaled down from the paper's (500k-integer sorts,
// 600x600 SpGEMM, up to 200 threads) so the full suite runs in minutes;
// HBM sizes are expressed as multiples of one core's unique page count,
// preserving the scarcity ratios that drive every effect the paper
// reports. Options.Full restores the paper-scale parameters.
package experiments

import (
	"fmt"

	"hbmsim/internal/report"
	"hbmsim/internal/tracing"
)

// Outcome is the result of one experiment.
type Outcome struct {
	// ID is the experiment identifier (fig2a, table1b, abl-q, ...).
	ID string
	// Title describes the experiment.
	Title string
	// PaperClaim restates what the paper reports for this artifact.
	PaperClaim string
	// Headline is the measured one-line summary to compare to PaperClaim.
	Headline string
	// Tables holds the regenerated tables.
	Tables []*report.Table
	// Series holds line data for the regenerated figure (empty for pure
	// tables).
	Series []report.Series
	// ChartTitle labels the chart built from Series.
	ChartTitle string
}

// Func runs one experiment on Options that Run has validated.
type Func func(Options) (*Outcome, error)

// registry lists every experiment in the order EXPERIMENTS.md presents
// them: the paper's figures and tables (§4, then §5's KNL validation),
// then the ablations, extensions and analyses.
var registry = []struct {
	id  string
	run Func
}{
	{"fig2a", figure2a},
	{"fig2b", figure2b},
	{"fig3", figure3},
	{"fig4a", figure4a},
	{"fig4b", figure4b},
	{"fig5a", figure5a},
	{"fig5b", figure5b},
	{"table1a", table1a},
	{"table1b", table1b},
	{"table2a", table2a},
	{"table2b", table2b},
	{"fig6", figure6},
	{"knl-properties", knlProperties},
	{"channels", ablChannels},
	{"replacement", ablReplacement},
	{"permuters", ablPermuters},
	{"imbalance", ablImbalance},
	{"directmap", ablDirectMapped},
	{"mapping", ablMapping},
	{"offline", ablOffline},
	{"augmentation", ablAugmentation},
	{"latency", ablLatency},
	{"backends", extBackends},
	{"missratio", ablMissRatio},
	{"responsecdf", ablResponseCDF},
	{"timeline", timelineExperiment},
	{"variance", ablVariance},
	{"optgap", optGapStudy},
}

// IDs returns every experiment id, in paper order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Get returns the experiment with the given id.
func Get(id string) (Func, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
}

// Run looks up one experiment, validates the options and runs it. When
// o.Ctx carries a trace span, the whole experiment is timed as an
// "experiments.run" child span and its internal sweeps' row spans nest
// under it.
func Run(id string, o Options) (*Outcome, error) {
	f, err := Get(id)
	if err != nil {
		return nil, err
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	ctx, sp := tracing.StartSpan(o.Ctx, "experiments.run")
	sp.SetAttr("experiment", id)
	o.Ctx = ctx
	out, err := f(o)
	sp.EndErr(err)
	return out, err
}
