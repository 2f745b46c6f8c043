// Package hbmsim is a simulator and algorithm library for automatic
// High-Bandwidth Memory management, reproducing "Automatic HBM Management:
// Models and Algorithms" (DeLayo et al., SPAA 2022).
//
// The library simulates the HBM+DRAM model: p cores share an HBM of k page
// slots backed by unbounded DRAM over q << p far channels, and the
// management policy must pick (a) a far-channel arbitration policy — which
// queued DRAM requests are served each tick — and (b) a block-replacement
// policy — which HBM page to evict. The paper's central result is that
// arbitration, not replacement, makes or breaks HBM performance: FIFO
// arbitration is Ω(p)-competitive in the worst case, static Priority is
// O(1)-competitive but unfair, and Dynamic/Cycle Priority (periodically
// permuting the priorities) get the best of both.
//
// # Quick start
//
//	wl, err := hbmsim.AdversarialWorkload(32, hbmsim.AdversarialConfig{})
//	if err != nil { ... }
//	res, err := hbmsim.Run(hbmsim.Config{
//		HBMSlots:    hbmsim.AdversarialHBMSlots(32, hbmsim.AdversarialConfig{}),
//		Channels:    1,
//		Arbiter:     hbmsim.ArbiterPriority,
//		Permuter:    hbmsim.PermuterDynamic,
//		RemapPeriod: 10 * hbmsim.Tick(k),
//	}, wl)
//
// The far side of every miss is itself a pluggable model: Config.Backend
// selects the paper's one-tick reference channel (the default), a
// bandwidth/latency channel, or a hybrid two-tier far memory — see
// MemBackends, ParseMemBackend, and BACKENDS.md for writing new ones.
//
// See the examples directory for full programs and the experiments package
// for the paper's evaluation suite.
package hbmsim

import (
	"io"
	"os"
	"path/filepath"
	"strings"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/core"
	"hbmsim/internal/durable"
	"hbmsim/internal/knl"
	"hbmsim/internal/lowerbound"
	"hbmsim/internal/membackend"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
	"hbmsim/internal/stackdist"
	"hbmsim/internal/trace"
	"hbmsim/internal/workloads"
)

// Core model types.
type (
	// PageID identifies one block of memory.
	PageID = model.PageID
	// CoreID indexes a core (thread).
	CoreID = model.CoreID
	// Tick is the simulator time unit: one block transfer per channel.
	Tick = model.Tick
	// Config selects the policies and parameters of one simulation run.
	Config = core.Config
	// Result summarises one simulation run.
	Result = core.Result
	// CoreResult summarises one core within a run.
	CoreResult = core.CoreResult
	// TruncatedError reports a run that hit its tick cap.
	TruncatedError = core.TruncatedError
	// Trace is one core's page-reference sequence.
	Trace = trace.Trace
	// Workload is a named set of per-core traces.
	Workload = trace.Workload
	// Sim is a stepwise simulator for tick-by-tick inspection.
	Sim = core.Sim
	// Mapping selects the HBM organisation (associative or direct-mapped).
	Mapping = core.Mapping
)

// HBM organisations for Config.Mapping.
const (
	// MappingAssociative is the fully-associative HBM the theory analyses
	// (the default).
	MappingAssociative = core.MappingAssociative
	// MappingDirect is a direct-mapped HBM with a 2-universal slot hash —
	// the hardware reality; Corollary 1 shows it costs only constants.
	MappingDirect = core.MappingDirect
)

// ParseMapping converts a string ("associative", "direct") to a Mapping.
func ParseMapping(s string) (Mapping, error) { return core.ParseMapping(s) }

// Policy kind types (string-valued; see the constants below).
type (
	// ArbiterKind names a far-channel arbitration policy.
	ArbiterKind = arbiter.Kind
	// PermuterKind names a priority-permutation scheme.
	PermuterKind = arbiter.PermuterKind
	// ReplacementKind names an HBM block-replacement policy.
	ReplacementKind = replacement.Kind
)

// ParseArbiter converts a string ("fifo", "priority", "random") to an
// ArbiterKind, verifying it is known.
func ParseArbiter(s string) (ArbiterKind, error) { return core.ParseArbiter(s) }

// ParsePermuter converts a string ("static", "dynamic", "cycle",
// "cycle-reverse", "interleave") to a PermuterKind.
func ParsePermuter(s string) (PermuterKind, error) { return core.ParsePermuter(s) }

// ParseReplacement converts a string ("lru", "fifo", "clock", "random",
// "belady") to a ReplacementKind.
func ParseReplacement(s string) (ReplacementKind, error) { return core.ParseReplacement(s) }

// Far-memory backend selection (Config.Backend; see internal/membackend).
type (
	// MemBackendKind names a far-memory backend model.
	MemBackendKind = membackend.Kind
	// MemBackendConfig selects and parameterises the far-memory model for
	// Config.Backend. The zero value is the paper's reference model.
	MemBackendConfig = membackend.Config
)

// Far-memory backends for Config.Backend.Kind.
const (
	// BackendReference is the paper's far channel: every block transfer
	// costs one tick per channel (times Config.FetchLatency). The default.
	BackendReference = membackend.Reference
	// BackendBandwidth prices transfers by size over finite per-channel
	// bandwidth, plus a fixed latency.
	BackendBandwidth = membackend.Bandwidth
	// BackendHybrid is a two-tier fast/slow far memory with asymmetric
	// read/write costs and a fast tier of bounded capacity.
	BackendHybrid = membackend.Hybrid
)

// MemBackends lists the registered far-memory backends.
func MemBackends() []MemBackendKind { return membackend.Kinds() }

// ParseMemBackend converts a backend name plus a comma-separated
// "key=value" parameter list (the CLI's -backend / -backend-params
// syntax; params may be empty) to a MemBackendConfig. An empty name
// selects BackendReference. Keys are the MemBackendConfig field's JSON
// names, e.g. "bytes_per_tick=8,latency_ticks=9".
func ParseMemBackend(name, params string) (MemBackendConfig, error) {
	return membackend.Parse(name, params)
}

// Far-channel arbitration policies.
const (
	// ArbiterFIFO serves DRAM requests first-come-first-served — today's
	// hardware default, and Ω(p)-competitive in the worst case.
	ArbiterFIFO = arbiter.FIFO
	// ArbiterPriority serves the highest-priority core first —
	// O(1)-competitive for q=1 (Theorem 1), O(q) in general (Theorem 3).
	ArbiterPriority = arbiter.Priority
	// ArbiterRandom serves a uniformly random queued request — the T→1
	// limit of Dynamic Priority.
	ArbiterRandom = arbiter.Random
)

// Priority-permutation schemes (used with ArbiterPriority).
const (
	// PermuterStatic never changes priorities: the original Priority.
	PermuterStatic = arbiter.Static
	// PermuterDynamic redraws a uniformly random permutation every
	// RemapPeriod ticks: Dynamic Priority, the paper's recommendation.
	PermuterDynamic = arbiter.Dynamic
	// PermuterCycle rotates every priority by one each RemapPeriod:
	// Cycle Priority, the hardware-friendly variant.
	PermuterCycle = arbiter.Cycle
	// PermuterCycleReverse rotates the other way.
	PermuterCycleReverse = arbiter.CycleReverse
	// PermuterInterleave riffles the top and bottom halves of the order.
	PermuterInterleave = arbiter.Interleave
)

// HBM block-replacement policies.
const (
	// ReplaceLRU evicts the least-recently-used page (the paper's
	// default; constant-competitive with resource augmentation).
	ReplaceLRU = replacement.LRU
	// ReplaceFIFO evicts in insertion order.
	ReplaceFIFO = replacement.FIFO
	// ReplaceClock evicts by the CLOCK second-chance approximation.
	ReplaceClock = replacement.Clock
	// ReplaceRandom evicts a uniformly random page.
	ReplaceRandom = replacement.Random
	// ReplaceBelady evicts the page whose next use (in its owner's
	// stream) is furthest away — the clairvoyant offline baseline. The
	// simulator wires the workload's future through automatically.
	ReplaceBelady = replacement.Belady
)

// Run simulates the workload under the configuration and returns the run
// summary. A *TruncatedError accompanies a partial Result when the run hit
// its tick cap.
func Run(cfg Config, wl *Workload) (*Result, error) {
	return core.Run(cfg, wl.Raw())
}

// RunTraces is Run for raw per-core traces. The traces must be
// disjoint: traces in which two cores reference one page are refused
// with an error naming the page and both cores, as Workload.Validate
// words it.
func RunTraces(cfg Config, traces [][]PageID) (*Result, error) {
	return core.Run(cfg, traces)
}

// NewSim builds a stepwise simulator for tick-by-tick inspection. Like
// Run and RunTraces, it refuses a workload in which two cores reference
// one page, with an error naming the page and both cores.
func NewSim(cfg Config, wl *Workload) (*Sim, error) {
	return core.New(cfg, wl.Raw())
}

// DynamicPriorityConfig returns the paper's recommended configuration for
// an HBM of k slots and q channels: Priority arbitration with a random
// re-permutation every 10k ticks, LRU replacement. ("Our results indicate
// that T should be greater than 10k", §4.)
func DynamicPriorityConfig(k, q int) Config {
	return Config{
		HBMSlots:    k,
		Channels:    q,
		Arbiter:     ArbiterPriority,
		Permuter:    PermuterDynamic,
		RemapPeriod: 10 * Tick(k),
		Replacement: ReplaceLRU,
	}
}

// Workload construction (see internal/workloads for the generators'
// semantics; every generator is deterministic in its seed).
type (
	// SortConfig parameterises the GNU-sort workload (Dataset 1).
	SortConfig = workloads.SortConfig
	// SpGEMMConfig parameterises the sparse matmul workload (Dataset 2).
	SpGEMMConfig = workloads.SpGEMMConfig
	// AdversarialConfig parameterises the FIFO-adversarial workload
	// (Dataset 3).
	AdversarialConfig = workloads.AdversarialConfig
	// DenseMMConfig parameterises the dense matmul workload.
	DenseMMConfig = workloads.DenseMMConfig
	// StreamConfig parameterises the STREAM-triad workload.
	StreamConfig = workloads.StreamConfig
	// SyntheticConfig parameterises synthetic reference streams.
	SyntheticConfig = workloads.SyntheticConfig
	// BFSConfig parameterises the instrumented graph-BFS workload.
	BFSConfig = workloads.BFSConfig
	// SortAlgo names a traced sorting algorithm.
	SortAlgo = workloads.SortAlgo
	// SyntheticKind names a synthetic stream distribution.
	SyntheticKind = workloads.SyntheticKind
)

// Synthetic stream kinds for SyntheticConfig.Kind.
const (
	SyntheticUniform = workloads.Uniform
	SyntheticZipf    = workloads.Zipfian
	SyntheticStrided = workloads.Strided
)

// Sorting algorithms for SortConfig.Algo.
const (
	SortIntro = workloads.Introsort
	SortMerge = workloads.Mergesort
	SortQuick = workloads.Quicksort
	SortHeap  = workloads.Heapsort
)

// SortWorkload builds p independent instrumented-sort traces (Dataset 1).
func SortWorkload(cores int, cfg SortConfig, seed int64) (*Workload, error) {
	return workloads.SortWorkload(cores, cfg, seed)
}

// SpGEMMWorkload builds p independent instrumented-SpGEMM traces
// (Dataset 2).
func SpGEMMWorkload(cores int, cfg SpGEMMConfig, seed int64) (*Workload, error) {
	return workloads.SpGEMMWorkload(cores, cfg, seed)
}

// AdversarialWorkload builds the cyclic trace that breaks FIFO
// (Dataset 3).
func AdversarialWorkload(cores int, cfg AdversarialConfig) (*Workload, error) {
	return workloads.AdversarialWorkload(cores, cfg)
}

// AdversarialHBMSlots returns the paper's HBM sizing for Dataset 3: a
// quarter of the total unique pages.
func AdversarialHBMSlots(cores int, cfg AdversarialConfig) int {
	return workloads.AdversarialHBMSlots(cores, cfg)
}

// DenseMMWorkload builds p independent dense-matmul traces.
func DenseMMWorkload(cores int, cfg DenseMMConfig, seed int64) (*Workload, error) {
	return workloads.DenseMMWorkload(cores, cfg, seed)
}

// StreamWorkload builds p independent STREAM-triad traces.
func StreamWorkload(cores int, cfg StreamConfig, seed int64) (*Workload, error) {
	return workloads.StreamWorkload(cores, cfg, seed)
}

// SyntheticWorkload builds p independent synthetic traces.
func SyntheticWorkload(cores int, cfg SyntheticConfig, seed int64) (*Workload, error) {
	return workloads.SyntheticWorkload(cores, cfg, seed)
}

// BFSWorkload builds p independent instrumented graph-BFS traces.
func BFSWorkload(cores int, cfg BFSConfig, seed int64) (*Workload, error) {
	return workloads.BFSWorkload(cores, cfg, seed)
}

// MixedSpec assigns cores to one generator inside a mixed workload.
type MixedSpec = workloads.MixedSpec

// TraceGen produces one core's trace from a seed. The workload builders
// renumber a copy of the returned trace and never write into the
// TraceGen's own slice, so a TraceGen may return a slice it shares or
// keeps. (The built-in generators' traces are renumbered in place.)
type TraceGen = workloads.Gen

// MixedWorkload builds a heterogeneous workload: different cores run
// different programs. Components are laid out in spec order and
// renumbered into disjoint page sets.
func MixedWorkload(specs []MixedSpec, seed int64) (*Workload, error) {
	return workloads.Mixed(specs, seed)
}

// NewWorkload renumbers per-core traces into disjoint page ranges
// (Property 1 of the model) and wraps them as a Workload.
func NewWorkload(name string, traces []Trace) *Workload {
	return trace.NewWorkload(name, traces)
}

// ImbalanceWorkload truncates each core's trace to a linearly ramping
// fraction, producing asymmetric work across cores.
func ImbalanceWorkload(wl *Workload, minFrac float64) (*Workload, error) {
	return workloads.Imbalance(wl, minFrac)
}

// ReuseCurve is an LRU miss-ratio curve computed from stack distances
// (Mattson's one-pass algorithm): Misses(k)/MissRatio(k) answer how a
// trace behaves in an LRU cache of any size k.
type ReuseCurve = stackdist.Curve

// ReuseCurveOf computes the miss-ratio curve of one trace in O(n log n).
// The curve keeps one count per stack distance, so it holds memory in
// proportion to the trace's distinct pages, not its length.
func ReuseCurveOf(tr Trace) ReuseCurve { return stackdist.CurveOf(tr) }

// OptimalPartition splits k HBM slots among per-core curves to minimise
// total LRU misses under static partitioning (utility-based partitioning
// with lookahead). It returns the allocation and the total misses.
func OptimalPartition(curves []ReuseCurve, k int) ([]int, uint64, error) {
	return stackdist.OptimalPartition(curves, k)
}

// EvenPartition returns the total misses when k slots are split evenly
// among the cores — the allocation FIFO arbitration approximates.
func EvenPartition(curves []ReuseCurve, k int) uint64 {
	return stackdist.EvenPartition(curves, k)
}

// Bounds collects makespan lower bounds for competitive-ratio estimates.
type Bounds = lowerbound.Bounds

// LowerBounds computes makespan lower bounds for the workload on an HBM of
// k slots with q channels.
func LowerBounds(wl *Workload, k, q int) Bounds {
	return lowerbound.Compute(wl, k, q)
}

// CompetitiveRatio returns measured/lower-bound for a run's makespan.
func CompetitiveRatio(measured Tick, b Bounds) float64 {
	return lowerbound.Ratio(measured, b)
}

// KNL machine model (the §5 validation substrate).
type (
	// KNLMachine is the calibrated Knights Landing memory-hierarchy model.
	KNLMachine = knl.Machine
	// KNLMode is a KNL memory mode (flat-dram, flat-hbm, cache).
	KNLMode = knl.Mode
)

// KNL memory modes.
const (
	KNLFlatDRAM = knl.FlatDRAM
	KNLFlatHBM  = knl.FlatHBM
	KNLCache    = knl.Cache
)

// DefaultKNL returns the machine model calibrated to the paper's KNL
// measurements (Table 2).
func DefaultKNL() KNLMachine { return knl.Default() }

// WriteWorkload saves a workload atomically (see durable.WriteFile); the
// format is chosen by extension (".txt" → text, anything else → binary).
func WriteWorkload(path string, wl *Workload) error {
	encode := trace.WriteBinary
	if strings.EqualFold(filepath.Ext(path), ".txt") {
		encode = trace.WriteText
	}
	return durable.WriteFile(path, func(w io.Writer) error { return encode(w, wl) })
}

// ReadWorkload loads a workload saved by WriteWorkload.
func ReadWorkload(path string) (*Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.EqualFold(filepath.Ext(path), ".txt") {
		return trace.ReadText(f)
	}
	return trace.ReadBinary(f)
}

// Version identifies the library release.
const Version = "1.0.0"
