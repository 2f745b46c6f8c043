package experiments

import (
	"context"
	"fmt"

	"hbmsim/internal/core"
	"hbmsim/internal/membackend"
	"hbmsim/internal/metrics"
	"hbmsim/internal/sweep"
)

// Options scales and seeds the experiment suite.
type Options struct {
	// SortN is the sort-workload input size (paper: 500000).
	SortN int
	// SpGEMMN is the sparse-matmul dimension (paper: 600).
	SpGEMMN int
	// SpGEMMDensity is the nonzero fraction (paper: ~0.10).
	SpGEMMDensity float64
	// PageBytes is the page size used when mapping instrumented accesses
	// to pages.
	PageBytes int
	// Threads is the thread-count axis of the figures (paper: 1..200).
	Threads []int
	// HBMSlots is the HBM-size axis of the figures in slots (the paper
	// sweeps 1000-5000 slots at cache-line block granularity).
	HBMSlots []int
	// RemapMultipliers are the T values of Figure 5 / Table 1 in units of
	// k (paper: 1, 5, 10, 100).
	RemapMultipliers []float64
	// DynamicT is the remap multiplier used by the Dynamic Priority
	// figures (paper: 10).
	DynamicT float64
	// Channels is q for the main experiments (paper: 1).
	Channels int
	// TradeoffThreads is the thread count for Figure 5 / Table 1.
	TradeoffThreads int
	// TradeoffSlots is the HBM size for Figure 5 / Table 1 and the
	// ablations, chosen so the far channel is saturated (the paper's
	// regime: large response times, visible starvation).
	TradeoffSlots int
	// OptGapWindow is the snapshot cadence, in ticks, for experiments that
	// attach the live optimality tracker (the optgap experiment); 0 keeps
	// the tracker's default (4096).
	OptGapWindow uint64
	// Seed drives all workload generation and policy randomness.
	Seed int64
	// Workers bounds sweep parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Backend, when its Kind is set, becomes the far-memory model of every
	// run whose config leaves Config.Backend unset, swept or observed — the
	// plumbing behind `hbmsweep -backend`. Jobs that pick a backend
	// explicitly (the `backends` experiment) keep their choice.
	Backend membackend.Config

	// Ctx, when non-nil, cancels the experiment's runs between jobs
	// (finished rows are kept, undispatched jobs error with the context's
	// cause). Options carrying a context is unidiomatic for APIs that
	// block per call, but experiments fan one Options out across many
	// internal sweeps, so the field keeps every signature unchanged.
	Ctx context.Context
	// OnProgress, when non-nil, receives one update per finished sweep
	// job (completed/total, failures, elapsed, ETA). Totals are per
	// sweep, not per experiment: an experiment may launch several sweeps.
	OnProgress func(sweep.Progress)
	// Metrics, when non-nil, receives live sweep counters and gauges (see
	// sweep.Options.Metrics).
	Metrics *metrics.Registry
	// Journal, when non-nil, appends every completed sweep row to the
	// crash-tolerant journal (see sweep.Journal); one journal can span all
	// of an hbmsweep invocation's experiments, because rows are keyed by
	// job name + config + workload fingerprints.
	Journal *sweep.Journal
	// Resume, when set with a Journal, skips jobs the journal already
	// holds, so a killed run re-executes only unfinished points.
	Resume bool
}

// run executes one sweep with the Options' live-introspection surface
// (context, progress callback, metrics registry) applied.
func (o Options) run(jobs []sweep.Job) []sweep.Row {
	o.applyBackend(jobs)
	return sweep.RunContext(o.Ctx, jobs, o.sweepOptions())
}

// runReplicated is run for seed-replicated sweeps.
func (o Options) runReplicated(jobs []sweep.Job, replicas int) []sweep.Replicated {
	o.applyBackend(jobs)
	return sweep.RunReplicatedContext(o.Ctx, jobs, replicas, o.sweepOptions())
}

// applyBackend folds Options.Backend into jobs that did not pick their
// own far-memory model.
func (o Options) applyBackend(jobs []sweep.Job) {
	for i := range jobs {
		jobs[i].Config = o.withBackend(jobs[i].Config)
	}
}

// withBackend returns cfg with Options.Backend as its far-memory model
// when cfg did not pick its own.
func (o Options) withBackend(cfg core.Config) core.Config {
	if o.Backend.Kind != "" && cfg.Backend.Kind == "" {
		cfg.Backend = o.Backend
	}
	return cfg
}

// runObserved runs one job with obs attached, for the experiments that
// read a run as it goes rather than only its Result. It applies
// Options.Backend as the sweeps do, refuses to start once Ctx is done,
// as a sweep refuses its undispatched jobs, and returns a truncated
// run's error.
func (o Options) runObserved(job sweep.Job, obs core.Observer) (*core.Result, error) {
	if o.Ctx != nil {
		if err := context.Cause(o.Ctx); err != nil {
			return nil, fmt.Errorf("experiments: job %q not run: %w", job.Name, err)
		}
	}
	sim, err := core.New(o.withBackend(job.Config), job.Workload.Raw())
	if err != nil {
		return nil, fmt.Errorf("experiments: job %q: %w", job.Name, err)
	}
	sim.SetObserver(obs)
	for sim.Step() {
	}
	if err := sim.Err(); err != nil {
		return nil, fmt.Errorf("experiments: job %q: %w", job.Name, err)
	}
	return sim.Result(), nil
}

func (o Options) sweepOptions() sweep.Options {
	return sweep.Options{
		Workers:    o.Workers,
		OnProgress: o.OnProgress,
		Metrics:    o.Metrics,
		Journal:    o.Journal,
		Resume:     o.Resume,
	}
}

// Default returns laptop-scale options that preserve the paper's scarcity
// ratios (see the package comment).
func Default() Options {
	return Options{
		SortN:            8000,
		SpGEMMN:          96,
		SpGEMMDensity:    0.10,
		PageBytes:        64,
		Threads:          []int{4, 8, 16, 32, 48, 64, 96},
		HBMSlots:         []int{250, 1000, 4000},
		RemapMultipliers: []float64{1, 5, 10, 100},
		DynamicT:         10,
		Channels:         1,
		TradeoffThreads:  64,
		TradeoffSlots:    1000,
		Seed:             1,
	}
}

// Full returns the paper-scale options. The suite takes hours at this
// scale; it exists to demonstrate that nothing but time separates the
// scaled runs from the original ones.
func Full() Options {
	o := Default()
	o.SortN = 500000
	o.SpGEMMN = 600
	o.Threads = []int{1, 25, 50, 75, 100, 125, 150, 175, 200}
	o.HBMSlots = []int{1000, 3000, 5000}
	o.TradeoffThreads = 100
	o.TradeoffSlots = 3000
	return o
}

// Validate reports an option error, if any. Run calls it before any
// experiment starts.
func (o Options) Validate() error {
	if o.SortN <= 0 || o.SpGEMMN <= 0 {
		return fmt.Errorf("experiments: workload sizes must be positive (sortN=%d, spgemmN=%d)", o.SortN, o.SpGEMMN)
	}
	if len(o.Threads) == 0 {
		return fmt.Errorf("experiments: at least one thread count required")
	}
	for _, p := range o.Threads {
		if p <= 0 {
			return fmt.Errorf("experiments: thread counts must be positive, got %d", p)
		}
	}
	if len(o.HBMSlots) == 0 {
		return fmt.Errorf("experiments: at least one HBM size required")
	}
	for _, k := range o.HBMSlots {
		if k < o.Channels {
			return fmt.Errorf("experiments: HBM size %d below channel count %d", k, o.Channels)
		}
	}
	if o.TradeoffSlots < o.Channels {
		return fmt.Errorf("experiments: tradeoff HBM size %d below channel count %d", o.TradeoffSlots, o.Channels)
	}
	if o.Channels < 1 {
		return fmt.Errorf("experiments: channels must be >= 1, got %d", o.Channels)
	}
	if o.TradeoffThreads < 1 {
		return fmt.Errorf("experiments: tradeoff thread count must be >= 1, got %d", o.TradeoffThreads)
	}
	if err := o.Backend.Validate(); err != nil {
		return err
	}
	return nil
}
