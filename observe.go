package hbmsim

import (
	"io"

	"hbmsim/internal/core"
	"hbmsim/internal/metrics"
	"hbmsim/internal/telemetry"
)

// Observability: the simulator exposes its full event surface through
// Observer, and internal/telemetry provides ready-made collectors —
// windowed time series, per-page heat maps, starvation detection, and
// Perfetto trace export. Attach one with Sim.SetObserver, or several at
// once with NewMultiObserver. Observers never change simulation results;
// see DESIGN.md's "Observability" section for the event model and the
// measured no-op overhead.
type (
	// Observer receives simulation events (queue, grant, serve, fetch,
	// evict, remap, tick end) as they happen. Embed NopObserver to
	// implement only a subset.
	Observer = core.Observer
	// NopObserver is an Observer with empty callbacks, for embedding.
	NopObserver = core.NopObserver
	// MultiObserver fans events out to several observers in attach order;
	// a Meter inside it reads the simulator's counters instead.
	MultiObserver = core.MultiObserver

	// Timeline collects windowed time series: per-window hit rate, queue
	// depth, channel utilization, per-core serve counts, and Jain's
	// fairness index.
	Timeline = telemetry.Timeline
	// TimelineWindow is one window of a Timeline.
	TimelineWindow = telemetry.Window
	// Heatmap counts per-page fetches and evictions and ranks hot pages.
	Heatmap = telemetry.Heatmap
	// PageHeat is one page's traffic totals in a Heatmap.
	PageHeat = telemetry.PageHeat
	// StarvationWatchdog records an episode whenever a core's gap between
	// consecutive serves exceeds a threshold.
	StarvationWatchdog = telemetry.StarvationWatchdog
	// StarvationEpisode is one recorded starvation incident.
	StarvationEpisode = telemetry.Episode
	// PerfettoExporter streams events as Chrome trace-event JSON loadable
	// in ui.perfetto.dev.
	PerfettoExporter = telemetry.PerfettoExporter
	// EventLog streams every event as one buffered CSV row.
	EventLog = telemetry.EventLog
	// OptTracker maintains live optimality telemetry: a streaming
	// makespan lower bound, per-core streaming stack-distance curves, and
	// a competitive_ratio gauge plus optgap_* instruments in a
	// MetricsRegistry.
	OptTracker = telemetry.OptTracker
	// OptPoint is one windowed snapshot of an OptTracker.
	OptPoint = telemetry.OptPoint
)

// NewMultiObserver builds a fan-out over several observers, so independent
// consumers can watch one simulation; nil entries are dropped.
func NewMultiObserver(obs ...Observer) *MultiObserver {
	return core.NewMultiObserver(obs...)
}

// NewTimeline builds a windowed time-series collector with the given
// window width in ticks (0 selects 1024) for a simulation with the given
// core and far-channel counts.
func NewTimeline(window Tick, cores, channels int) *Timeline {
	return telemetry.NewTimeline(window, cores, channels)
}

// NewHeatmap builds a per-page fetch/eviction counter.
func NewHeatmap() *Heatmap { return telemetry.NewHeatmap() }

// NewStarvationWatchdog builds a watchdog flagging serve gaps longer than
// the threshold (in ticks).
func NewStarvationWatchdog(threshold Tick) *StarvationWatchdog {
	return telemetry.NewStarvationWatchdog(threshold)
}

// NewPerfetto builds a Chrome trace-event exporter writing to w; call
// Close after the run to finish the trace. The trace holds one track per
// core and one per far channel, plus eviction/remap instants and
// queue-depth counters.
func NewPerfetto(w io.Writer, cores, channels int) *PerfettoExporter {
	return telemetry.NewPerfetto(w, cores, channels)
}

// NewPerfettoNamed is NewPerfetto with the workload's name folded into
// the trace's process names. The name is JSON-escaped, so arbitrary
// workload names are safe; an empty name is byte-identical to
// NewPerfetto.
func NewPerfettoNamed(w io.Writer, workload string, cores, channels int) *PerfettoExporter {
	return telemetry.NewPerfettoNamed(w, workload, cores, channels)
}

// NewEventLog builds a buffered CSV event log writing to w; call Flush
// after the run.
func NewEventLog(w io.Writer) *EventLog { return telemetry.NewEventLog(w) }

// NewEventLogNamed is NewEventLog with the workload's name recorded in a
// leading "# workload:" comment row as a JSON-escaped string, so hostile
// names cannot forge CSV rows; an empty name is byte-identical to
// NewEventLog.
func NewEventLogNamed(w io.Writer, workload string) *EventLog {
	return telemetry.NewEventLogNamed(w, workload)
}

// NewOptTracker builds a live optimality tracker for a simulation of the
// given core count on an HBM of k slots with q far channels, registering
// the competitive_ratio gauge and optgap_* instruments in reg (nil for
// throwaway instruments). window is the snapshot cadence in ticks (0
// selects 4096). At the end of a completed run the tracker's ratio
// equals CompetitiveRatio over LowerBounds exactly.
func NewOptTracker(reg *MetricsRegistry, cores, k, q int, window Tick) *OptTracker {
	return telemetry.NewOptTracker(reg, cores, k, q, window)
}

// Live metrics: Meter publishes the simulator's counters into a
// MetricsRegistry, safe to scrape from another goroutine while the
// simulation runs (cmd/hbmsim's -http flag serves one on /metrics).
// Values lag the run by up to 1024 ticks and are exact once it ends.
type (
	// MetricsRegistry is a named set of atomic counters, gauges, and
	// fixed-bucket histograms with Prometheus-text and JSON exposition.
	MetricsRegistry = metrics.Registry
	// Meter is an Observer that mirrors the simulator's counters, not its
	// events, into a MetricsRegistry (hbmsim_ticks_total, ...).
	Meter = telemetry.Meter
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewMeter registers the simulator instruments in reg and returns the
// observer; attach it with Sim.SetObserver or a MultiObserver.
func NewMeter(reg *MetricsRegistry) *Meter { return telemetry.NewMeter(reg) }
