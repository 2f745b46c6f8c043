package serve

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"hbmsim/internal/core"
	"hbmsim/internal/durable"
	"hbmsim/internal/model"
	"hbmsim/internal/sweep"
	"hbmsim/internal/telemetry"
	"hbmsim/internal/trace"
	"hbmsim/internal/tracing"
)

// runSim executes a single-simulation job with a periodic atomic
// checkpoint: every CheckpointEvery ticks the full simulator state is
// snapshotted to job-<id>.snap (durable.WriteFile, so a crash cannot
// tear it), and a restarted service resumes from the snapshot instead of
// re-simulating from tick zero. Determinism comes from core.Resume: the
// resumed simulator replays the identical event stream, so the final
// Result is bit-identical to an uninterrupted run.
func (s *Service) runSim(ctx context.Context, j *job) (*Payload, error) {
	wl, err := j.spec.Workload.Build()
	if err != nil {
		return nil, err
	}
	if err := s.checkFingerprint(j, wl); err != nil {
		return nil, err
	}
	if p, ok := s.cacheGet(j); ok {
		return p, nil
	}
	cfg, err := j.spec.Config.Config()
	if err != nil {
		return nil, err
	}
	snapPath := s.jobFile(j.id, ".snap")
	sim, err := s.buildSim(ctx, cfg, wl, snapPath)
	if err != nil {
		return nil, err
	}
	every := model.Tick(s.checkpointEvery(j))
	// The snapshot cadence is polled between Steps; forbid a cruising
	// run from jumping across a checkpoint tick.
	sim.SetBoundary(every)

	// Progress is read from the simulator's cursors between Steps, so a
	// job attaches no observer unless it tracks the optimality gap.
	// Counting from the cursors also credits the serves a resumed run
	// does not replay, so progress is monotone across restarts.
	prog := &simProgress{svc: s, job: j, total: int(wl.TotalRefs()), start: time.Now()}
	if s.opts.TrackOptGap {
		// Gauges in the shared registry are last-writer-wins across
		// concurrent sim jobs; the per-job OptGapView published by flush
		// is authoritative.
		prog.tracker = telemetry.NewOptTracker(s.opts.Metrics, wl.Cores(),
			cfg.HBMSlots, cfg.Channels, model.Tick(s.opts.OptGapWindow))
		sim.SetObserver(prog.tracker)
	}

	const (
		ctxCheckMask  = 1<<12 - 1 // poll ctx every 4096 Steps
		progressTicks = 1 << 14   // publish progress every 16384 ticks
	)
	nextProgress := (sim.Tick()/progressTicks + 1) * progressTicks
	var steps uint64
	for sim.Step() {
		if every > 0 && sim.Tick()%every == 0 {
			if err := s.writeSnapshot(ctx, sim, snapPath); err != nil {
				return nil, err
			}
		}
		if t := sim.Tick(); t >= nextProgress {
			prog.flush(prog.total-sim.Remaining(), false)
			nextProgress = (t/progressTicks + 1) * progressTicks
		}
		steps++
		if steps&ctxCheckMask == 0 && ctx.Err() != nil {
			// Interrupted: snapshot once more so a resume loses at most
			// nothing (user cancels discard the job anyway; shutdowns
			// restart exactly here).
			if err := s.writeSnapshot(ctx, sim, snapPath); err != nil {
				return nil, err
			}
			return nil, context.Cause(ctx)
		}
	}
	prog.flush(prog.total, true)
	return &Payload{Sim: sim.Result()}, sim.Err()
}

// buildSim constructs the job's simulator, resuming from its snapshot
// when one exists (the crash-recovery path); a missing snapshot is a
// fresh start, and a snapshot that fails to load fails the job rather
// than silently recomputing — the mismatch means the spec changed.
func (s *Service) buildSim(ctx context.Context, cfg core.Config, wl *trace.Workload, snapPath string) (*core.Sim, error) {
	f, err := os.Open(snapPath)
	if os.IsNotExist(err) {
		return core.New(cfg, wl.Raw())
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sim, err := core.ResumeContext(ctx, f, cfg, wl.Raw())
	if err != nil {
		return nil, fmt.Errorf("resuming %s: %w", snapPath, err)
	}
	return sim, nil
}

// writeSnapshot checkpoints the simulator atomically with
// durable.WriteFile. A crash mid-write leaves the previous snapshot
// intact. Each write is timed as a "serve.checkpoint_write" span (with
// the serialisation itself nested as core.checkpoint.save) and observed
// in the serve_checkpoint_write_seconds histogram.
func (s *Service) writeSnapshot(ctx context.Context, sim *core.Sim, path string) error {
	cctx, sp := tracing.StartSpan(ctx, "serve.checkpoint_write")
	t0 := time.Now()
	err := durable.WriteFile(path, func(w io.Writer) error { return sim.CheckpointContext(cctx, w) })
	s.ins.checkpointWrite.Observe(time.Since(t0).Seconds())
	sp.SetAttrUint("tick", uint64(sim.Tick()))
	sp.EndErr(err)
	return err
}

// simProgress pushes a sim job's progress updates into the job (and
// from there to SSE subscribers and /progress), along with the live
// optimality snapshot when a tracker is attached.
type simProgress struct {
	svc     *Service
	job     *job
	tracker *telemetry.OptTracker
	total   int
	start   time.Time
}

// flush publishes served of total references as a sweep.Progress (the
// service's single progress currency), plus the optimality snapshot when
// tracked. It runs on the simulation goroutine, so reading the tracker
// races with nothing.
func (p *simProgress) flush(served int, final bool) {
	elapsed := time.Since(p.start)
	prog := sweep.Progress{Completed: served, Total: p.total, Elapsed: elapsed}
	if !final {
		prog.ETA = sweep.ETA(served, p.total, elapsed)
	}
	var og *OptGapView
	if p.tracker != nil {
		snap := p.tracker.Snapshot()
		og = &OptGapView{
			CompetitiveRatio: snap.Ratio,
			LowerBoundTicks:  uint64(snap.LowerBound),
			MeasuredTicks:    uint64(snap.Tick),
			UniquePages:      snap.UniquePages,
			MissRatio:        snap.MissRatio,
			P90StackDistance: snap.P90Distance,
			Windows:          len(p.tracker.Points()),
		}
	}
	p.svc.pushSimProgress(p.job, prog, og)
}
