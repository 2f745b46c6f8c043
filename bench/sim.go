package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"hbmsim/internal/core"
	"hbmsim/internal/metrics"
	"hbmsim/internal/serve"
	"hbmsim/internal/telemetry"
	"hbmsim/internal/trace"
	"hbmsim/internal/tracing"
)

// namedConfig is one simulator configuration of a shape.
type namedConfig struct {
	name string
	spec serve.ConfigSpec
}

// simShape is one generated workload and the configurations it is
// simulated under, in the job-spec vocabulary `hbmsim -gen` shares.
type simShape struct {
	name string
	wl   serve.WorkloadSpec
	cfgs []namedConfig
}

// simWorkload is an hbmsim-equivalent run: generate each shape's
// workload, then simulate, summarise and JSON-encode it under each
// configuration. With observed set, every configuration is simulated a
// second time with a telemetry.Meter attached through
// core.NewMultiObserver, as `hbmsim -http` does.
type simWorkload struct {
	shapes   []simShape
	observed bool
	// halfK sizes HBM to half the workload's unique pages, the shape on
	// which fast-forward covers most ticks.
	halfK bool
	first simStats // counts of operation 0
}

// simStats are the deterministic counts of one operation's bare runs.
type simStats struct {
	refs, steps, ticks, ffTicks uint64
}

func newSimPaper(seed int64, smoke bool) *simWorkload {
	spgemm := serve.WorkloadSpec{Gen: "spgemm", Cores: 32, Size: 96, Seed: seed}
	sorts := serve.WorkloadSpec{Gen: "sort", Cores: 32, Size: 8000, Seed: seed}
	k := 1000
	if smoke {
		spgemm.Cores, spgemm.Size = 4, 24
		sorts.Cores, sorts.Size = 4, 400
		k = 64
	}
	cfgs := []namedConfig{
		{"fifo", serve.ConfigSpec{HBMSlots: k, Seed: seed}},
		{"dynamic-priority", serve.ConfigSpec{HBMSlots: k, Arbiter: "priority", Permuter: "dynamic", RemapPeriod: 10000, Seed: seed}},
	}
	return &simWorkload{shapes: []simShape{
		{name: "spgemm", wl: spgemm, cfgs: cfgs},
		{name: "sort", wl: sorts, cfgs: cfgs},
	}}
}

func newSimHitstretch(seed int64, smoke bool) *simWorkload {
	dense := serve.WorkloadSpec{Gen: "densemm", Cores: 16, Size: 64, Seed: seed}
	if smoke {
		dense.Cores, dense.Size = 2, 12
	}
	return &simWorkload{
		shapes:   []simShape{{name: "densemm", wl: dense, cfgs: []namedConfig{{"fifo", serve.ConfigSpec{Seed: seed}}}}},
		observed: true,
		halfK:    true,
	}
}

func (s *simWorkload) setup(h *harness) error {
	ctx, root := h.tracer.StartRoot(context.Background(), "bench.setup")
	defer root.End()
	for si := range s.shapes {
		sh := &s.shapes[si]
		wl, err := buildWorkload(ctx, sh.wl)
		if err != nil {
			return err
		}
		for ci := range sh.cfgs {
			if s.halfK {
				sh.cfgs[ci].spec.HBMSlots = wl.UniquePages() / 2
			}
			cfg, err := sh.cfgs[ci].spec.Config()
			if err != nil {
				return err
			}
			if _, err := core.New(cfg, wl.Raw()); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *simWorkload) teardown(*harness) {}

func (s *simWorkload) run(h *harness, deadline time.Time) {
	h.loop(deadline, true, func(i int, tr *tracing.Tracer) error {
		ctx, root := tr.StartRoot(context.Background(), "bench.sim_run")
		st, err := s.op(ctx, h)
		root.EndErr(err)
		if i == 0 {
			s.first = st
		}
		return err
	})
}

func (s *simWorkload) op(ctx context.Context, h *harness) (simStats, error) {
	var st simStats
	for _, sh := range s.shapes {
		wl, err := buildWorkload(ctx, sh.wl)
		if err != nil {
			return st, err
		}
		st.refs += wl.TotalRefs()
		for _, c := range sh.cfgs {
			key := sh.name + "/" + c.name
			cfg, err := c.spec.Config()
			if err != nil {
				return st, err
			}
			res, enc, run, err := simulate(ctx, cfg, wl, nil)
			if err != nil {
				return st, fmt.Errorf("%s: %w", key, err)
			}
			st.steps += run.steps
			st.ticks += run.ticks
			st.ffTicks += run.ffTicks
			if res.TotalRefs != wl.TotalRefs() {
				return st, fmt.Errorf("%s: served %d references, workload has %d", key, res.TotalRefs, wl.TotalRefs())
			}
			if !h.checkDigest(key, enc) {
				return st, fmt.Errorf("%s: result differs from the first run's", key)
			}
			if !s.observed {
				continue
			}
			meter := telemetry.NewMeter(metrics.NewRegistry())
			_, oenc, orun, err := simulate(ctx, cfg, wl, core.NewMultiObserver(meter))
			if err != nil {
				return st, fmt.Errorf("%s observed: %w", key, err)
			}
			if !bytes.Equal(enc, oenc) {
				return st, fmt.Errorf("%s: observed result differs from the bare one", key)
			}
			if meter.Serves() != res.TotalRefs || meter.Ticks() != orun.ticks {
				return st, fmt.Errorf("%s: meter counted %d serves over %d ticks, simulator %d over %d",
					key, meter.Serves(), meter.Ticks(), res.TotalRefs, orun.ticks)
			}
		}
	}
	return st, nil
}

// simulate runs one simulation to completion inside bench.sim_new,
// bench.sim_steps and bench.result_encode spans, returning the Result,
// its JSON encoding and the run's counts.
func simulate(ctx context.Context, cfg core.Config, wl *trace.Workload, obs core.Observer) (*core.Result, []byte, simStats, error) {
	var st simStats
	_, sp := tracing.StartSpan(ctx, "bench.sim_new")
	sim, err := core.New(cfg, wl.Raw())
	sp.EndErr(err)
	if err != nil {
		return nil, nil, st, err
	}
	if obs != nil {
		sim.SetObserver(obs)
	}
	_, sp = tracing.StartSpan(ctx, "bench.sim_steps")
	for sim.Step() {
		st.steps++
	}
	st.ticks, st.ffTicks = uint64(sim.Tick()), sim.FastForwardedTicks()
	sp.SetAttrBool("observed", obs != nil)
	sp.SetAttrUint("steps", st.steps)
	sp.SetAttrUint("refs", wl.TotalRefs())
	sp.End()

	_, sp = tracing.StartSpan(ctx, "bench.result_encode")
	res := sim.Result()
	enc, err := json.Marshal(res)
	sp.EndErr(err)
	if err != nil {
		return nil, nil, st, err
	}
	if res.Truncated {
		return nil, nil, st, fmt.Errorf("simulation truncated at tick %d", st.ticks)
	}
	return res, enc, st, nil
}

// check has nothing left to do: every run is checked as it finishes.
func (s *simWorkload) check(*harness) {}

func (s *simWorkload) layers(h *harness, m *metricSet) {
	recs := h.spans.snapshot()
	observed := func(v string) func(*tracing.SpanRecord) bool {
		return func(r *tracing.SpanRecord) bool { return r.AttrValue("observed") == v }
	}
	build := durations(recs, "bench.workload_build", nil)
	newS := durations(recs, "bench.sim_new", nil)
	bare := durations(recs, "bench.sim_steps", observed("false"))
	obs := durations(recs, "bench.sim_steps", observed("true"))
	enc := durations(recs, "bench.result_encode", nil)
	m.set("workloads.build_s", mean(build), len(build))
	m.set("workloads.refs", float64(s.first.refs), 1)
	m.set("core.new_s", mean(newS), len(newS))
	m.set("core.step_s", mean(bare), len(bare))
	m.set("core.observed_step_s", mean(obs), len(obs))
	m.set("core.result_encode_s", mean(enc), len(enc))
	m.set("core.steps", float64(s.first.steps), 1)
	m.set("core.ticks", float64(s.first.ticks), 1)
	m.set("core.ff_ticks", float64(s.first.ffTicks), 1)
	m.set("core.ff_tick_frac", ratio(float64(s.first.ffTicks), float64(s.first.ticks)), 1)

	var steps, refs float64
	for i := range recs {
		r := &recs[i]
		if r.Name == "bench.sim_steps" && r.AttrValue("observed") == "false" {
			n, _ := strconv.ParseUint(r.AttrValue("steps"), 10, 64)
			x, _ := strconv.ParseUint(r.AttrValue("refs"), 10, 64)
			steps += float64(n)
			refs += float64(x)
		}
	}
	m.set("core.ns_per_step", ratio(sum(bare)*1e9, steps), len(bare))
	m.set("core.mrefs_per_s", ratio(refs/1e6, sum(bare)), len(bare))
	if len(obs) > 0 {
		m.set("telemetry.observed_over_bare", ratio(mean(obs), mean(bare)), len(obs))
	}
}
