package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"hbmsim/internal/shard"
	"hbmsim/internal/sweep"
	"hbmsim/internal/tracing"
)

// runShardedSweep executes a multi-point sweep job across the service's
// peers through internal/shard. The unit of work is the journal row:
// already-journaled points (a resumed job) are never re-dispatched,
// arriving rows are journaled in completion order exactly like the local
// path, and a fully successful job ends with a canonical merge
// (sweep.RewriteCanonical) that rewrites the journal in point order —
// byte-identical to a single-node workers=1 run of the same spec.
//
// Sub-jobs are ordinary sweep specs over a subset of points with names
// pinned to the parent's PointName (so journal keys match), no_shard set
// (peers never re-shard), and the coordinator's traceparent attached, so
// the whole fan-out is one trace tree.
func (s *Service) runShardedSweep(ctx context.Context, j *job, jobs []sweep.Job) (*Payload, error) {
	jnlPath := s.jobFile(j.id, ".jnl")
	jnl, err := sweep.OpenJournal(jnlPath)
	if err != nil {
		return nil, err
	}
	// Closed explicitly before the canonical merge below; the deferred
	// close only covers the error paths (double Close is safe).
	defer jnl.Close()

	// Resume: only points without a journaled row are dispatched.
	var pendingIdx []int
	for i := range jobs {
		if _, ok := jnl.Lookup(jobs[i]); !ok {
			pendingIdx = append(pendingIdx, i)
		}
	}

	var mu sync.Mutex
	errs := make(map[int]string) // point index -> row error (not journaled)
	completed := len(jobs) - len(pendingIdx)
	start := time.Now()
	pushProg := func() {
		mu.Lock()
		elapsed := time.Since(start)
		p := sweep.Progress{
			Completed: completed, Total: len(jobs), Failed: len(errs),
			Elapsed: elapsed, ETA: sweep.ETA(completed, len(jobs), elapsed),
		}
		mu.Unlock()
		s.pushProgress(j, p)
	}
	pushProg()

	onRow := func(row shard.RowOutcome) {
		mu.Lock()
		completed++
		if row.Err != "" {
			errs[row.Index] = row.Err
		}
		mu.Unlock()
		// The local fallback journals its rows as they finish, so only a
		// row the journal does not hold yet is recorded here.
		if _, held := jnl.Lookup(jobs[row.Index]); !held && row.Err == "" && row.Result != nil {
			if rerr := jnl.Record(jobs[row.Index], row.Result); rerr != nil {
				// The row is lost to this journal but still counted in
				// memory; a restart re-runs only this point.
				mu.Lock()
				errs[row.Index] = rerr.Error()
				mu.Unlock()
			}
		}
		pushProg()
	}

	coord, err := shard.New(shard.Options{
		Peers:        s.opts.Peers,
		Client:       &http.Client{Timeout: 0}, // long polls bound per-request via ctx
		RowsPerShard: s.opts.ShardRows,
		StealAfter:   s.opts.StealAfter,
		Metrics:      s.opts.Metrics,
		MakeSpec:     func(points []int) ([]byte, error) { return shardSpec(j.spec, points) },
		RunLocal: func(ctx context.Context, points []int, emit func(shard.RowOutcome)) error {
			sub := make([]sweep.Job, len(points))
			for i, p := range points {
				sub[i] = jobs[p]
			}
			workers := j.spec.Workers
			if workers <= 0 {
				workers = s.opts.JobWorkers
			}
			// Journal each row as it finishes, as a single-node sweep
			// does, so an interrupt keeps the rows already done.
			rows := sweep.RunContext(ctx, sub, sweep.Options{
				Workers: workers,
				Metrics: s.opts.Metrics,
				Journal: jnl,
			})
			if cause := context.Cause(ctx); cause != nil {
				return cause
			}
			for i, r := range rows {
				out := shard.RowOutcome{Index: points[i], Result: r.Result}
				if r.Err != nil {
					out.Err = r.Err.Error()
				}
				emit(out)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	shardCtx, shardSpan := tracing.StartSpan(ctx, "serve.shard_sweep")
	shardSpan.SetAttrInt("points", int64(len(jobs)))
	shardSpan.SetAttrInt("pending", int64(len(pendingIdx)))
	shardSpan.SetAttrInt("peers", int64(len(s.opts.Peers)))
	err = coord.Run(shardCtx, pendingIdx, onRow)
	shardSpan.EndErr(err)
	if err != nil {
		return nil, err
	}
	if cause := context.Cause(ctx); cause != nil {
		return nil, cause
	}

	// Assemble the payload from the journal (authoritative for successes)
	// plus the in-memory error map.
	payload := &Payload{Rows: make([]RowResult, len(jobs))}
	allOK := true
	for i := range jobs {
		payload.Rows[i] = RowResult{Name: jobs[i].Name}
		if res, ok := jnl.Lookup(jobs[i]); ok {
			payload.Rows[i].Result = res
		} else {
			allOK = false
			mu.Lock()
			payload.Rows[i].Error = errs[i]
			mu.Unlock()
			if payload.Rows[i].Error == "" {
				payload.Rows[i].Error = "row missing after sharded run"
			}
		}
	}

	// Canonical merge: rewrite the completion-order journal in point
	// order so the bytes match a single-node run. Only when every row
	// succeeded — a partial journal stays in completion order for resume.
	if allOK {
		if err := jnl.Close(); err != nil {
			return nil, err
		}
		rows := make([]sweep.Row, len(jobs))
		for i := range jobs {
			rows[i] = sweep.Row{Job: jobs[i], Result: payload.Rows[i].Result}
		}
		if err := sweep.RewriteCanonical(jnlPath, rows); err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// shardSpec renders one shard's sub-job spec: the parent sweep narrowed
// to the given point indices, names pinned so the rows keep their
// parent journal keys, no_shard set so peers run it locally.
func shardSpec(parent *Spec, points []int) ([]byte, error) {
	sub := Spec{
		Kind:           KindSweep,
		Name:           parent.Name + "-shard",
		Workload:       parent.Workload,
		Workers:        parent.Workers,
		NoShard:        true,
		TimeoutSeconds: parent.TimeoutSeconds,
		Points:         make([]Point, len(points)),
	}
	for i, p := range points {
		sub.Points[i] = Point{Name: parent.PointName(p), Config: parent.Points[p].Config}
	}
	return json.Marshal(sub)
}
