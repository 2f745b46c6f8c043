package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"hbmsim"

	"hbmsim/internal/durable"
	"hbmsim/internal/introspect"
	"hbmsim/internal/report"
	"hbmsim/internal/sweep"
)

// telemetryOptions collects the CLI's observability and checkpointing
// flags.
type telemetryOptions struct {
	eventsPath   string
	timelinePath string
	window       hbmsim.Tick
	perfettoPath string
	heatTop      int
	watchGap     hbmsim.Tick

	// optGap attaches the live optimality tracker (streaming lower bound,
	// miss-ratio curve, competitive_ratio gauge); optGapWindow is its
	// snapshot cadence and optGapCSV an optional window-series output.
	optGap       bool
	optGapWindow hbmsim.Tick
	optGapCSV    string

	// checkpointEvery/checkpointPath enable periodic snapshots from the
	// tick loop (plus one final snapshot at completion); resumePath
	// restores the run from an earlier snapshot before the first Step.
	checkpointEvery hbmsim.Tick
	checkpointPath  string
	resumePath      string

	// metrics/progress carry the -http live-introspection state; totalRefs
	// sizes the /progress completion fraction.
	metrics   *hbmsim.MetricsRegistry
	progress  *introspect.Progress
	totalRefs uint64
}

// refreshTicks is the /progress refresh cadence in simulated ticks —
// cheap enough for the step loop, fresh enough for a human watching curl.
const refreshTicks = 1024

// runStats carries execution telemetry that lives outside the Result:
// wall-clock duration of the step loop, the jump counters and the
// cruised serves.
type runStats struct {
	elapsed     time.Duration
	ffTicks     uint64
	ffStretches uint64
	cruised     uint64
}

// collectors holds the attached telemetry consumers so their findings can
// be rendered after the run.
type collectors struct {
	timeline *hbmsim.Timeline
	heatmap  *hbmsim.Heatmap
	watchdog *hbmsim.StarvationWatchdog
	tracker  *hbmsim.OptTracker

	timelinePath string
	heatTop      int
	optGapCSV    string
}

// runObserved drives a stepwise simulation with the requested telemetry
// observers attached, if any, and finalises their outputs.
func runObserved(ctx context.Context, cfg hbmsim.Config, wl *hbmsim.Workload, opts telemetryOptions) (*hbmsim.Result, *collectors, runStats, error) {
	var rs runStats
	sim, err := buildSim(ctx, cfg, wl, opts.resumePath)
	if err != nil {
		return nil, nil, rs, err
	}
	// The checkpoint cadence is polled between Steps, so a cruising run
	// must never jump across a multiple of it.
	sim.SetBoundary(opts.checkpointEvery)

	multi := hbmsim.NewMultiObserver()
	col := &collectors{timelinePath: opts.timelinePath, heatTop: opts.heatTop}
	var files []*os.File
	closeAll := func() {
		for _, f := range files {
			f.Close()
		}
	}

	var events *hbmsim.EventLog
	if opts.eventsPath != "" {
		f, err := os.Create(opts.eventsPath)
		if err != nil {
			return nil, nil, rs, err
		}
		files = append(files, f)
		events = hbmsim.NewEventLogNamed(f, wl.Name)
		multi.Attach(events)
	}
	var perfetto *hbmsim.PerfettoExporter
	if opts.perfettoPath != "" {
		f, err := os.Create(opts.perfettoPath)
		if err != nil {
			closeAll()
			return nil, nil, rs, err
		}
		files = append(files, f)
		perfetto = hbmsim.NewPerfettoNamed(f, wl.Name, wl.Cores(), cfg.Channels)
		if cfg.FetchLatency > 1 {
			perfetto.SetFetchLatency(hbmsim.Tick(cfg.FetchLatency))
		}
		multi.Attach(perfetto)
	}
	if opts.timelinePath != "" {
		window := opts.window
		if window == 0 {
			window = cfg.RemapPeriod // 0 falls through to NewTimeline's default
		}
		col.timeline = hbmsim.NewTimeline(window, wl.Cores(), cfg.Channels)
		multi.Attach(col.timeline)
	}
	if opts.heatTop > 0 {
		col.heatmap = hbmsim.NewHeatmap()
		multi.Attach(col.heatmap)
	}
	if opts.watchGap > 0 {
		col.watchdog = hbmsim.NewStarvationWatchdog(opts.watchGap)
		multi.Attach(col.watchdog)
	}
	if opts.optGap {
		col.tracker = hbmsim.NewOptTracker(opts.metrics, wl.Cores(), cfg.HBMSlots, cfg.Channels, opts.optGapWindow)
		col.optGapCSV = opts.optGapCSV
		if perfetto != nil {
			// The optimality gap as a Perfetto counter track, one sample per
			// closed window.
			p := perfetto
			col.tracker.SetOnWindow(func(pt hbmsim.OptPoint) { p.EmitOptGap(pt.Tick, pt.Ratio) })
		}
		multi.Attach(col.tracker)
	}
	if opts.metrics != nil {
		// The Meter reads counters, not events: the step loop runs bare.
		multi.Attach(hbmsim.NewMeter(opts.metrics))
	}
	// /progress is refreshed from the simulator's cursors between Steps,
	// not by an observer, so it costs the step loop nothing and counts
	// the serves a resumed run does not replay.
	var refreshProgress func()
	if opts.progress != nil {
		opts.progress.SetPhase("simulate", int(opts.totalRefs))
		total, start := int(opts.totalRefs), time.Now()
		refreshProgress = func() {
			served := total - sim.Remaining()
			elapsed := time.Since(start)
			opts.progress.Update(served, total, 0, elapsed, sweep.ETA(served, total, elapsed))
		}
	}

	sim.SetObserver(multi)
	// Dead-sink detection cadence: a latched write error on a streaming
	// sink (a full disk, a closed pipe) aborts the run within this many
	// ticks instead of simulating to completion and discovering the
	// partial file at the final flush.
	const errCheckMask = 1<<12 - 1
	var steps uint64
	nextRefresh := (sim.Tick()/refreshTicks + 1) * refreshTicks
	start := time.Now()
	for sim.Step() {
		if opts.checkpointEvery > 0 && sim.Tick()%opts.checkpointEvery == 0 {
			if err := writeCheckpoint(ctx, sim, opts.checkpointPath); err != nil {
				closeAll()
				return nil, nil, rs, err
			}
		}
		if t := sim.Tick(); refreshProgress != nil && t >= nextRefresh {
			refreshProgress()
			nextRefresh = (t/refreshTicks + 1) * refreshTicks
		}
		steps++
		if steps&errCheckMask == 0 {
			if err := sinkErr(events, perfetto); err != nil {
				closeAll()
				return nil, nil, rs, err
			}
		}
	}
	rs.elapsed = time.Since(start)
	rs.ffTicks = sim.FastForwardedTicks()
	rs.ffStretches = sim.FastForwardedStretches()
	rs.cruised = sim.CruisedServes()
	if opts.checkpointEvery > 0 {
		// One final snapshot so a resume of a finished run reproduces its
		// result without re-simulating.
		if err := writeCheckpoint(ctx, sim, opts.checkpointPath); err != nil {
			closeAll()
			return nil, nil, rs, err
		}
	}
	res := sim.Result()
	if refreshProgress != nil {
		refreshProgress() // final update so /progress shows completion
	}

	if events != nil {
		if err := events.Flush(); err != nil {
			closeAll()
			return res, nil, rs, err
		}
	}
	if perfetto != nil {
		if err := perfetto.Close(); err != nil {
			closeAll()
			return res, nil, rs, err
		}
	}
	if col.timeline != nil {
		f, err := os.Create(opts.timelinePath)
		if err != nil {
			closeAll()
			return res, nil, rs, err
		}
		files = append(files, f)
		if err := col.timeline.WriteCSV(f); err != nil {
			closeAll()
			return res, nil, rs, err
		}
	}
	if col.tracker != nil && opts.optGapCSV != "" {
		f, err := os.Create(opts.optGapCSV)
		if err != nil {
			closeAll()
			return res, nil, rs, err
		}
		files = append(files, f)
		if err := col.tracker.WriteCSV(f); err != nil {
			closeAll()
			return res, nil, rs, err
		}
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			return res, nil, rs, err
		}
	}
	return res, col, rs, sim.Err()
}

// sinkErr returns the first write error latched by a streaming sink, so
// the step loop can abort on a dead sink instead of finishing the run
// and losing the signal in a silent partial file.
func sinkErr(events *hbmsim.EventLog, perfetto *hbmsim.PerfettoExporter) error {
	if events != nil {
		if err := events.Err(); err != nil {
			return fmt.Errorf("event log: %w", err)
		}
	}
	if perfetto != nil {
		if err := perfetto.Err(); err != nil {
			return fmt.Errorf("perfetto trace: %w", err)
		}
	}
	return nil
}

// buildSim constructs the stepwise simulator, resuming from a snapshot
// when one was given.
func buildSim(ctx context.Context, cfg hbmsim.Config, wl *hbmsim.Workload, resumePath string) (*hbmsim.Sim, error) {
	if resumePath == "" {
		return hbmsim.NewSim(cfg, wl)
	}
	f, err := os.Open(resumePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sim, err := hbmsim.ResumeSimContext(ctx, f, cfg, wl)
	if err != nil {
		return nil, fmt.Errorf("resuming %s: %w", resumePath, err)
	}
	return sim, nil
}

// writeCheckpoint snapshots the simulator atomically with
// durable.WriteFile, so a crash mid-write can never leave a torn
// snapshot at the checkpoint path.
func writeCheckpoint(ctx context.Context, sim *hbmsim.Sim, path string) error {
	return durable.WriteFile(path, func(w io.Writer) error { return sim.CheckpointContext(ctx, w) })
}

// report renders the in-process collectors' findings as tables.
func (c *collectors) report(w io.Writer) error {
	if c.heatmap != nil {
		fmt.Fprintln(w)
		tbl := report.NewTable(
			fmt.Sprintf("Hottest pages by far-channel fetches (top %d of %d)", c.heatTop, c.heatmap.Pages()),
			"page", "fetches", "evictions")
		for _, ph := range c.heatmap.TopN(c.heatTop) {
			tbl.AddRow(uint64(ph.Page), ph.Fetches, ph.Evictions)
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
	}
	if c.watchdog != nil {
		fmt.Fprintln(w)
		eps := c.watchdog.Episodes()
		const maxRows = 20
		title := fmt.Sprintf("Starvation episodes (gap > %d ticks): %d", c.watchdog.Threshold(), len(eps))
		if len(eps) > maxRows {
			title += fmt.Sprintf(", worst %d shown", maxRows)
			// Keep the episodes with the largest gaps.
			sorted := make([]hbmsim.StarvationEpisode, len(eps))
			copy(sorted, eps)
			for i := 0; i < maxRows; i++ { // selection of the top rows is enough at this size
				maxAt := i
				for j := i + 1; j < len(sorted); j++ {
					if sorted[j].Gap > sorted[maxAt].Gap {
						maxAt = j
					}
				}
				sorted[i], sorted[maxAt] = sorted[maxAt], sorted[i]
			}
			eps = sorted[:maxRows]
		}
		tbl := report.NewTable(title, "core", "from", "to", "gap")
		for _, e := range eps {
			tbl.AddRow(int(e.Core), uint64(e.From), uint64(e.To), uint64(e.Gap))
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		core, gap := c.watchdog.MaxGap()
		fmt.Fprintf(w, "worst serve gap: %d ticks (core %d)\n", gap, core)
	}
	if c.timeline != nil {
		fmt.Fprintf(w, "\nwrote %d timeline windows (%d ticks each) to %s\n",
			len(c.timeline.Windows()), c.timeline.WindowTicks(), c.timelinePath)
	}
	if c.tracker != nil {
		fmt.Fprintln(w)
		final := c.tracker.Snapshot()
		tbl := report.NewTable(
			fmt.Sprintf("Live optimality telemetry (%d windows of %d ticks)",
				len(c.tracker.Points()), c.tracker.WindowTicks()),
			"metric", "value")
		tbl.AddRow("streaming lower bound (ticks)", uint64(final.LowerBound))
		tbl.AddRow("live competitive ratio", final.Ratio)
		tbl.AddRow("unique pages observed", final.UniquePages)
		tbl.AddRow("miss ratio @ even HBM split", final.MissRatio)
		tbl.AddRow("p90 stack distance (pages)", final.P90Distance)
		if err := tbl.Render(w); err != nil {
			return err
		}
		if c.optGapCSV != "" {
			fmt.Fprintf(w, "wrote %d optimality windows to %s\n",
				len(c.tracker.Points()), c.optGapCSV)
		}
	}
	return nil
}
