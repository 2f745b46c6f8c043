package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hbmsim/internal/core"
	"hbmsim/internal/serve"
	"hbmsim/internal/sweep"
	"hbmsim/internal/trace"
	"hbmsim/internal/tracing"
)

// sweepWorkers is the sweep's worker pool. One worker keeps the pass time
// off the scheduler: on a two-vCPU shared host, two CPU-bound workers plus
// the GC and the journal's fsyncs measured other tenants more than the
// sweep.
const sweepWorkers = 1

// sweepBackends are the far-memory models the sweep crosses.
var sweepBackends = []string{"reference", "bandwidth", "hybrid"}

// sweepWorkload runs one 24-point sweep per operation over a workload
// built once in setup, journaling every row to a fresh sweep.Journal, as
// `hbmsweep` does. It is the only workload that runs the bandwidth and
// hybrid backends and the per-row journal fsync. The SpGEMM is sized so a
// pass takes about a second: a run then holds about twenty passes.
type sweepWorkload struct {
	spec serve.WorkloadSpec
	ks   [2]int
	seed int64

	wl        *trace.Workload
	jobs      []sweep.Job
	first     []sweep.Row // rows of pass 0
	journalKB float64
}

func newSweepJournal(seed int64, smoke bool) *sweepWorkload {
	w := &sweepWorkload{
		spec: serve.WorkloadSpec{Gen: "spgemm", Cores: 32, Size: 64, Seed: seed},
		ks:   [2]int{500, 2000},
		seed: seed,
	}
	if smoke {
		w.spec.Cores, w.spec.Size = 4, 24
		w.ks = [2]int{16, 64}
	}
	return w
}

func (w *sweepWorkload) setup(h *harness) error {
	ctx, root := h.tracer.StartRoot(context.Background(), "bench.setup")
	defer root.End()
	wl, err := buildWorkload(ctx, w.spec)
	if err != nil {
		return err
	}
	w.wl, w.jobs = wl, nil
	// {reference, bandwidth, hybrid} x {FIFO, Dynamic Priority} x k x {LRU, CLOCK}, q=2.
	for _, be := range sweepBackends {
		for _, arb := range []string{"fifo", "dynamic-priority"} {
			for _, k := range w.ks {
				for _, pol := range []string{"lru", "clock"} {
					spec := serve.ConfigSpec{HBMSlots: k, Channels: 2, Replacement: pol, Backend: be, Seed: w.seed}
					if arb == "dynamic-priority" {
						spec.Arbiter, spec.Permuter, spec.RemapPeriod = "priority", "dynamic", 10000
					}
					cfg, err := spec.Config()
					if err != nil {
						return err
					}
					w.jobs = append(w.jobs, sweep.Job{
						Name:     fmt.Sprintf("%s/%s/k%d/%s", be, arb, k, pol),
						Config:   cfg,
						Workload: wl,
					})
				}
			}
		}
	}
	return nil
}

func (w *sweepWorkload) teardown(*harness) {}

func (w *sweepWorkload) run(h *harness, deadline time.Time) {
	h.loop(deadline, false, func(i int, tr *tracing.Tracer) error {
		ctx, root := tr.StartRoot(context.Background(), "bench.sweep_pass")
		err := w.pass(ctx, h, i)
		root.EndErr(err)
		return err
	})
}

func (w *sweepWorkload) pass(ctx context.Context, h *harness, i int) error {
	path := filepath.Join(h.dir, fmt.Sprintf("journal-%d.jsonl", i))
	j, err := sweep.OpenJournal(path)
	if err != nil {
		return err
	}
	rows := sweep.RunContext(ctx, w.jobs, sweep.Options{Workers: sweepWorkers, Journal: j})
	journaled := j.Len()
	if err := j.Close(); err != nil {
		return err
	}
	if err := sweep.FirstError(rows); err != nil {
		return err
	}
	if journaled != len(w.jobs) {
		return fmt.Errorf("journal holds %d rows, want %d", journaled, len(w.jobs))
	}
	for _, r := range rows {
		enc, err := json.Marshal(r.Result)
		if err != nil {
			return err
		}
		if !h.checkDigest(r.Job.Name, enc) {
			return fmt.Errorf("row %s differs from the first pass's", r.Job.Name)
		}
	}
	if i == 0 {
		w.first = rows
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		w.journalKB = float64(info.Size()) / 1024
	}
	return nil
}

// check re-runs the first pass's points directly through core.Run.
func (w *sweepWorkload) check(h *harness) {
	parallel(len(w.first), func(i int) {
		r := w.first[i]
		res, err := core.Run(r.Job.Config, w.wl.Raw())
		if err != nil {
			h.fail("direct check %s: %v", r.Job.Name, err)
			return
		}
		want, err1 := json.Marshal(res)
		got, err2 := json.Marshal(r.Result)
		if err1 != nil || err2 != nil || !bytes.Equal(want, got) {
			h.fail("sweep row %s differs from a direct core.Run", r.Job.Name)
		}
	})
}

func (w *sweepWorkload) layers(h *harness, m *metricSet) {
	recs := h.spans.snapshot()
	build := durations(recs, "bench.workload_build", nil)
	m.set("workloads.build_s", mean(build), len(build))
	m.set("workloads.refs", float64(w.wl.TotalRefs()), 1)

	rows := durations(recs, "sweep.row.run", nil)
	passes := durations(recs, "bench.sweep_pass", nil)
	fsyncs := durations(recs, "sweep.journal_fsync", nil)
	m.set("sweep.row_s_mean", mean(rows), len(rows))
	m.set("sweep.worker_util", ratio(sum(rows), sweepWorkers*sum(passes)), len(passes))
	m.set("sweep.journal_fsync_s_mean", mean(fsyncs), len(fsyncs))
	m.set("sweep.journal_kb", w.journalKB, 1)

	var ticks uint64
	for _, r := range w.first {
		ticks += uint64(r.Result.Makespan)
	}
	m.set("core.ticks", float64(ticks), 1)
	for _, be := range sweepBackends {
		prefix := be + "/"
		d := durations(recs, "sweep.row.run", func(r *tracing.SpanRecord) bool {
			return strings.HasPrefix(r.AttrValue("row"), prefix)
		})
		var t uint64
		for _, r := range w.first {
			if strings.HasPrefix(r.Job.Name, prefix) {
				t += uint64(r.Result.Makespan)
			}
		}
		m.set("membackend."+be+".row_s_mean", mean(d), len(d))
		m.set("membackend."+be+".ticks", float64(t), 1)
	}
}
