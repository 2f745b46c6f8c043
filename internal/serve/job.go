// Package serve implements the long-running simulation job service behind
// cmd/hbmserved: an HTTP front door that accepts simulation, sweep, and
// experiment jobs as JSON, runs them on a bounded worker pool, and survives
// crashes.
//
// The service composes the repo's existing robustness machinery instead of
// inventing new state: every accepted job is appended to an fsynced
// manifest journal before the submitter gets an ID, sweep jobs record each
// completed row through sweep.Journal, and long single simulations
// checkpoint periodically through core.Checkpoint. A process killed at any
// point — including SIGKILL — restarts with the same state directory,
// re-enqueues every unfinished job, and finishes them with results
// bit-identical to an uninterrupted run (the determinism guarantees come
// from the journal/checkpoint layers; serve only routes work through
// them).
//
// Robustness properties, in one place:
//
//   - Admission is bounded: when the queue of not-yet-running jobs is
//     full, Submit returns ErrQueueFull and the HTTP layer answers
//     429 with a Retry-After header. Jobs are journaled before they are
//     acknowledged, so an acknowledged job is never lost.
//   - Every job runs under a context: DELETE /jobs/{id} cancels it, a
//     per-job deadline (Spec.TimeoutSeconds) fails it, and a worker panic
//     is captured into the job's error instead of crashing the service.
//   - Graceful shutdown (Drain) stops admission and lets running jobs
//     finish; when the drain deadline expires, in-flight jobs are
//     interrupted WITHOUT a terminal manifest record, so the next start
//     resumes them from their journal or snapshot.
//
// See DESIGN.md §12 for the request lifecycle and the recovery
// invariants, and OPERATIONS.md for the operator's view.
package serve

import (
	"fmt"
	"hash/fnv"
	"sort"

	"hbmsim/internal/core"
	"hbmsim/internal/experiments"
	"hbmsim/internal/trace"
	"hbmsim/internal/workloads"
)

// Kind discriminates the job types the service runs.
type Kind string

const (
	// KindSim is one simulation of one (config, workload) point; long
	// runs checkpoint periodically via core.Checkpoint and resume after a
	// crash.
	KindSim Kind = "sim"
	// KindSweep is a list of (config, workload) points fanned out over
	// sweep.RunContext; completed rows land in a per-job sweep.Journal
	// and a crashed job re-runs only its unfinished points.
	KindSweep Kind = "sweep"
	// KindExperiment runs one registered experiment from
	// internal/experiments (any id `hbmsweep -list` prints); its internal
	// sweeps are journaled like KindSweep jobs.
	KindExperiment Kind = "experiment"
)

// State is a job's lifecycle state. Transitions are strictly
// queued → running → one of the terminal states (done, failed,
// cancelled); a crash rewinds a running job to queued on restart.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ConfigSpec is the JSON form of core.Config; see core.ConfigSpec.
type ConfigSpec = core.ConfigSpec

// WorkloadSpec names a built-in workload generator plus its parameters —
// the same vocabulary as `hbmsim -gen`; see workloads.Spec.
type WorkloadSpec = workloads.Spec

// Point is one configuration of a sweep job.
type Point struct {
	// Name labels the point in the job's rows; empty names become
	// "point-<index>".
	Name   string     `json:"name,omitempty"`
	Config ConfigSpec `json:"config"`
}

// Spec is a job submission. Kind selects which fields apply:
//
//   - sim: Workload + Config (+ CheckpointEveryTicks)
//   - sweep: Workload + Points (+ Workers)
//   - experiment: Experiment (+ Full, Seed, Workers)
//
// TimeoutSeconds applies to every kind.
type Spec struct {
	Kind Kind `json:"kind"`
	// Name labels the job in listings; optional.
	Name string `json:"name,omitempty"`

	// Workload is the input for sim and sweep jobs.
	Workload *WorkloadSpec `json:"workload,omitempty"`

	// Config is the sim job's configuration.
	Config *ConfigSpec `json:"config,omitempty"`
	// CheckpointEveryTicks overrides the service's default snapshot
	// cadence for this sim job (0 = service default).
	CheckpointEveryTicks uint64 `json:"checkpoint_every_ticks,omitempty"`

	// Points are the sweep job's configurations, all run against
	// Workload.
	Points []Point `json:"points,omitempty"`
	// NoShard pins a sweep job to this node even when the service has
	// peers configured. Shard sub-jobs carry it so a peer that itself has
	// peers never re-shards delegated work.
	NoShard bool `json:"no_shard,omitempty"`
	// Workers bounds the job's internal sweep parallelism (0 = service
	// default).
	Workers int `json:"workers,omitempty"`

	// Experiment names a registered experiment id (see `hbmsweep -list`).
	Experiment string `json:"experiment,omitempty"`
	// Full selects paper-scale experiment parameters (slow).
	Full bool `json:"full,omitempty"`
	// Seed seeds the experiment's workloads and policies (0 = 1).
	Seed int64 `json:"seed,omitempty"`

	// TimeoutSeconds is the job's running-time deadline; 0 means no
	// deadline. A job that exceeds it fails with a deadline error.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// Validate checks the spec is complete and internally consistent for its
// kind, without building workloads.
func (s *Spec) Validate() error {
	switch s.Kind {
	case KindSim:
		if s.Workload == nil || s.Config == nil {
			return fmt.Errorf("serve: sim job needs both workload and config")
		}
		if len(s.Points) > 0 || s.Experiment != "" {
			return fmt.Errorf("serve: sim job cannot carry points or an experiment")
		}
		if err := s.Workload.Validate(); err != nil {
			return err
		}
		if _, err := s.Config.Config(); err != nil {
			return err
		}
	case KindSweep:
		if s.Workload == nil {
			return fmt.Errorf("serve: sweep job needs a workload")
		}
		if len(s.Points) == 0 {
			return fmt.Errorf("serve: sweep job needs at least one point")
		}
		if s.Config != nil || s.Experiment != "" {
			return fmt.Errorf("serve: sweep job cannot carry a top-level config or an experiment")
		}
		if err := s.Workload.Validate(); err != nil {
			return err
		}
		for i := range s.Points {
			if _, err := s.Points[i].Config.Config(); err != nil {
				return fmt.Errorf("point %d: %w", i, err)
			}
		}
	case KindExperiment:
		if s.Experiment == "" {
			return fmt.Errorf("serve: experiment job needs an experiment id")
		}
		if s.Workload != nil || s.Config != nil || len(s.Points) > 0 {
			return fmt.Errorf("serve: experiment job carries only experiment options")
		}
		if _, err := experiments.Get(s.Experiment); err != nil {
			return err
		}
	case "":
		return fmt.Errorf("serve: job spec needs a kind (sim, sweep, or experiment)")
	default:
		return fmt.Errorf("serve: unknown job kind %q", s.Kind)
	}
	if s.TimeoutSeconds < 0 {
		return fmt.Errorf("serve: timeout_seconds must be >= 0")
	}
	return nil
}

// PointName returns the sweep point's display name.
func (s *Spec) PointName(i int) string {
	if s.Points[i].Name != "" {
		return s.Points[i].Name
	}
	return fmt.Sprintf("point-%d", i)
}

// Fingerprint hashes the job's identity with the same primitives the
// checkpoint format uses: core.WorkloadHash over the built traces and
// core.ConfigHash over every defaulted configuration, folded together
// with FNV-1a. The manifest stores it at admission; recovery recomputes
// it from the spec and refuses to resume a job whose inputs no longer
// reproduce (a changed generator, a renamed point, an edited config), so
// journal/snapshot rows can never be replayed into a different job.
//
// wl may be nil for experiment jobs, whose identity is the spec itself
// (experiments build their own workloads from Seed internally).
func (s *Spec) Fingerprint(wl *trace.Workload) (uint64, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "kind=%s|", s.Kind)
	switch s.Kind {
	case KindSim:
		cfg, err := s.Config.Config()
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(h, "cfg=%016x|wl=%016x", core.ConfigHash(cfg), core.WorkloadHash(wl.Raw()))
	case KindSweep:
		fmt.Fprintf(h, "wl=%016x", core.WorkloadHash(wl.Raw()))
		for i := range s.Points {
			cfg, err := s.Points[i].Config.Config()
			if err != nil {
				return 0, err
			}
			fmt.Fprintf(h, "|%s=%016x", s.PointName(i), core.ConfigHash(cfg))
		}
	case KindExperiment:
		fmt.Fprintf(h, "exp=%s|full=%t|seed=%d|workers=%d", s.Experiment, s.Full, s.Seed, s.Workers)
	}
	return h.Sum64(), nil
}

// RowResult is one finished point of a sweep job, in point order.
type RowResult struct {
	Name   string       `json:"name"`
	Result *core.Result `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// TableResult is one experiment table rendered as CSV.
type TableResult struct {
	Title string `json:"title"`
	CSV   string `json:"csv"`
}

// ExperimentResult is the JSON form of an experiments.Outcome.
type ExperimentResult struct {
	ID         string        `json:"id"`
	Title      string        `json:"title"`
	PaperClaim string        `json:"paper_claim"`
	Headline   string        `json:"headline"`
	Tables     []TableResult `json:"tables,omitempty"`
}

// Payload is a finished job's result; exactly one field is set,
// matching the job kind.
type Payload struct {
	Sim        *core.Result      `json:"sim,omitempty"`
	Rows       []RowResult       `json:"rows,omitempty"`
	Experiment *ExperimentResult `json:"experiment,omitempty"`
}

// OptGapView is the JSON shape of a sim job's live optimality snapshot
// (present when the service runs with Options.TrackOptGap): how far the
// simulation currently sits from its streaming makespan lower bound. At
// a completed run's final update the ratio equals the batch
// lowerbound.Ratio estimate exactly.
type OptGapView struct {
	CompetitiveRatio float64 `json:"competitive_ratio"`
	LowerBoundTicks  uint64  `json:"lower_bound_ticks"`
	MeasuredTicks    uint64  `json:"measured_ticks"`
	UniquePages      int     `json:"unique_pages"`
	MissRatio        float64 `json:"miss_ratio"`
	P90StackDistance int64   `json:"p90_stack_distance"`
	Windows          int     `json:"windows"`
}

// ProgressView is the JSON shape of a job's live progress.
type ProgressView struct {
	Completed      int     `json:"completed"`
	Total          int     `json:"total"`
	Failed         int     `json:"failed,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	ETASeconds     float64 `json:"eta_seconds,omitempty"`
}

// View is a job's externally visible state — what GET /jobs/{id}
// returns.
type View struct {
	ID    uint64 `json:"id"`
	Name  string `json:"name,omitempty"`
	Kind  Kind   `json:"kind"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// SubmittedUnix/StartedUnix/FinishedUnix are wall-clock seconds; zero
	// when the phase has not been reached. Restarts reset StartedUnix.
	SubmittedUnix int64 `json:"submitted_unix,omitempty"`
	StartedUnix   int64 `json:"started_unix,omitempty"`
	FinishedUnix  int64 `json:"finished_unix,omitempty"`
	// TraceID is the job's trace ID (32 hex digits) when the service runs
	// with tracing and the job's trace was sampled: resolve it on
	// /debug/trace?trace=<id> or download its Perfetto rendering there.
	TraceID string `json:"trace_id,omitempty"`
	// Recovered marks a job re-enqueued by crash recovery at least once.
	Recovered bool `json:"recovered,omitempty"`
	// CacheHit marks a job answered from the content-addressed result
	// cache: an identical job (same fingerprint) had already finished, so
	// its payload was returned without re-simulating.
	CacheHit bool          `json:"cache_hit,omitempty"`
	Progress *ProgressView `json:"progress,omitempty"`
	// OptGap is the live optimality snapshot of a running (or finished)
	// sim job; only set when the service tracks optimality gaps.
	OptGap *OptGapView `json:"optgap,omitempty"`
	Result *Payload    `json:"result,omitempty"`
	Spec   *Spec       `json:"spec,omitempty"`
}

// sortViews orders views by ID ascending.
func sortViews(vs []View) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
}
