// Package membackend lifts the simulator's far-memory transfer model
// behind a composable Backend interface, so the paper's one-tick-per-
// transfer far channel is one instance among several instead of being
// welded into the tick kernel (the Ramulator 2.1 restructuring applied
// to this codebase). internal/core owns residency, replacement, and
// arbitration; a Backend owns everything between a granted request and
// the page landing in HBM: admission capacity per tick, transfer
// duration, completion order, and (optionally) the cost of writing
// evicted pages back.
//
// Three backends ship with the repo:
//
//   - Reference: the paper's model — q pipelined channels, every
//     transfer completes in Config.FetchLatency ticks. Bit-identical to
//     the pre-interface kernel (pinned by internal/core's differential
//     tests) and the only backend the HBMSNAP v2 legacy format decodes
//     into.
//   - Bandwidth: q channels each moving BytesPerTick bytes per tick;
//     a transfer of PageBytes occupies its channel for
//     ceil(PageBytes/BytesPerTick) ticks and lands LatencyTicks later.
//     Channels are granted only while one is free, so bandwidth — not
//     the arbiter — becomes the bottleneck under load (SNIPPETS.md
//     Snippet 1's HBMChannel is the exemplar).
//   - Hybrid: a two-tier DRAM+NVM far memory with read/write asymmetry
//     following the hybrid-memory analytic models: reads hit either a
//     FIFO-managed fast tier (FastReadTicks) or the slow tier
//     (SlowReadTicks), and evicted pages write back through a
//     dedicated writeback channel at FastWriteTicks/SlowWriteTicks,
//     which withholds one fetch channel while it is behind.
//
// Every backend keeps its started transfers in one in-flight queue
// (inflight.go), ordered by completion tick. Every backend is
// single-goroutine, allocation-free in steady state, fully
// deterministic, and checkpointable through internal/snap; the shared
// contract is pinned by RunBackendConformance (conformance_test.go),
// which new backends should pass before being registered (see BACKENDS.md
// for the authoring walkthrough).
package membackend

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// Kind names a far-memory backend model.
type Kind string

// The registered backends.
const (
	// Reference is the paper's far-channel model: q pipelined channels,
	// one page per transfer, fixed FetchLatency. The default.
	Reference Kind = "reference"
	// Bandwidth models per-channel throughput: a page transfer occupies
	// a channel for ceil(PageBytes/BytesPerTick) ticks plus a fixed
	// latency.
	Bandwidth Kind = "bandwidth"
	// Hybrid models a two-tier DRAM+NVM far memory with asymmetric
	// read/write costs and writeback traffic for evicted pages.
	Hybrid Kind = "hybrid"
)

// Kinds lists the registered backend kinds.
func Kinds() []Kind { return []Kind{Reference, Bandwidth, Hybrid} }

// Transfer is one page moving from far memory into HBM for a core.
type Transfer struct {
	Core model.CoreID
	Page model.PageID
}

// Backend is the far-channel/transfer-completion contract between the
// tick kernel and a far-memory model, and it carries only what the
// kernel calls. In tick order: DueAt (step 3, to size evictions), then
// GrantLimit and up to that many Starts (step 5, in arbitration order),
// then Drain (step 5, to land completed pages); a cruising run asks
// NextEventTick before it jumps quiet ticks, and a checkpoint saves the
// state. All methods are single-goroutine and must be deterministic: the
// same call sequence always produces the same completions in the same
// order.
type Backend interface {
	// GrantLimit reports how many queued requests may be granted a far
	// channel at tick t. The kernel calls it once per tick, before any
	// Start at that tick.
	GrantLimit(t model.Tick) int

	// Start admits a granted transfer at tick t. The kernel calls it at
	// most GrantLimit(t) times per tick, in arbitration order.
	Start(t model.Tick, tr Transfer)

	// DueAt reports how many transfers Drain(t) will return after the
	// grant phase admits min(GrantLimit(t), queueLen) transfers — the
	// kernel sizes step-3 evictions with it before any grant happens.
	// Backends whose transfers never complete on their start tick simply
	// count in-flight transfers due at t; the Reference model with unit
	// latency additionally counts the same-tick grants bounded by
	// queueLen.
	DueAt(t model.Tick, queueLen int) int

	// Drain appends the transfers completing at tick t to dst, in
	// completion order with ties broken by start order, removes them
	// from the in-flight set, and returns the extended slice.
	Drain(t model.Tick, dst []Transfer) []Transfer

	// MaxInFlight bounds the started, not-yet-drained transfers over
	// any run — the snapshot decoder's allocation guard. The kernel's
	// landing buffer and the in-flight queue hold at most one transfer
	// per core, so they are sized by the smaller of it and the core
	// count.
	MaxInFlight() int

	// NextEventTick returns the earliest tick at which an in-flight
	// transfer completes, or 0 when nothing is in flight. The value is
	// non-decreasing between Starts. A cruising run's jump uses it to
	// skip quiet ticks up to, not onto, the next completion, so it must
	// never be later than the true completion.
	NextEventTick() model.Tick

	// SaveState/LoadState serialise the backend's dynamic state into a
	// checkpoint's 'B' section. Save must be byte-deterministic in the
	// state; Load must bounds-check every decoded value and never panic
	// on corrupt input (internal/snap's Reader carries the limits).
	snap.Saver
	snap.Loader
}

// WritebackSink is implemented by backends that charge for writing
// evicted pages back to far memory. The kernel calls Writeback once per
// eviction, at the evicting tick, after the page's OnEvict event;
// backends without the method treat eviction as free (the paper's
// model).
type WritebackSink interface {
	Writeback(t model.Tick, page model.PageID)
}

// Config selects and parameterises a backend. The zero value is the
// Reference model. JSON tags make it embeddable in job specs.
type Config struct {
	Kind Kind `json:"kind,omitempty"`

	// PageBytes is the payload size of one page transfer for the
	// bandwidth and hybrid models. Default 64.
	PageBytes int `json:"page_bytes,omitempty"`

	// BytesPerTick is the bandwidth model's per-channel throughput.
	// Default 16 (so a default page occupies a channel for 4 ticks).
	BytesPerTick int `json:"bytes_per_tick,omitempty"`
	// LatencyTicks is the bandwidth model's fixed access latency,
	// added after the transfer finishes. Default 4.
	LatencyTicks int `json:"latency_ticks,omitempty"`

	// FastSlots is the hybrid model's fast-tier capacity in pages
	// (FIFO-managed). Default 64.
	FastSlots int `json:"fast_slots,omitempty"`
	// FastReadTicks/SlowReadTicks are the hybrid model's read costs for
	// fast-tier and slow-tier pages. Defaults 2 and 8.
	FastReadTicks int `json:"fast_read_ticks,omitempty"`
	SlowReadTicks int `json:"slow_read_ticks,omitempty"`
	// FastWriteTicks/SlowWriteTicks are the hybrid model's writeback
	// costs; the slow tier's write asymmetry is the NVM signature.
	// Defaults 2 and 24.
	FastWriteTicks int `json:"fast_write_ticks,omitempty"`
	SlowWriteTicks int `json:"slow_write_ticks,omitempty"`
}

// WithDefaults fills zero-valued fields with the documented defaults.
func (c Config) WithDefaults() Config {
	if c.Kind == "" {
		c.Kind = Reference
	}
	if c.PageBytes == 0 {
		c.PageBytes = 64
	}
	if c.BytesPerTick == 0 {
		c.BytesPerTick = 16
	}
	if c.LatencyTicks == 0 && c.Kind == Bandwidth {
		c.LatencyTicks = 4
	}
	if c.FastSlots == 0 {
		c.FastSlots = 64
	}
	if c.FastReadTicks == 0 {
		c.FastReadTicks = 2
	}
	if c.SlowReadTicks == 0 {
		c.SlowReadTicks = 8
	}
	if c.FastWriteTicks == 0 {
		c.FastWriteTicks = 2
	}
	if c.SlowWriteTicks == 0 {
		c.SlowWriteTicks = 24
	}
	return c
}

// maxParam bounds every backend parameter and the reference model's
// fetch latency, so no product or sum New forms from them overflows and what New preallocates (in-flight queues
// and the fast tier are sized by the parameters) stays small, whatever
// a job spec or -backend-params asks for.
const maxParam = 1 << 16

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if !slices.Contains(Kinds(), c.Kind) {
		return fmt.Errorf("membackend: unknown backend %q (known: %v)", c.Kind, Kinds())
	}
	for _, f := range []struct {
		name   string
		v, min int
	}{
		{"page_bytes", c.PageBytes, 1}, {"bytes_per_tick", c.BytesPerTick, 1},
		{"latency_ticks", c.LatencyTicks, 0}, {"fast_slots", c.FastSlots, 1},
		{"fast_read_ticks", c.FastReadTicks, 1}, {"slow_read_ticks", c.SlowReadTicks, 1},
		{"fast_write_ticks", c.FastWriteTicks, 1}, {"slow_write_ticks", c.SlowWriteTicks, 1},
	} {
		if f.v < f.min || f.v > maxParam {
			return fmt.Errorf("membackend: %s must be in [%d, %d], got %d", f.name, f.min, maxParam, f.v)
		}
	}
	return nil
}

// Canonical renders the defaulted configuration as a stable string —
// the form folded into config fingerprints, so two configs that default
// to the same backend hash identically. The Reference model renders as
// "reference" with no parameters: it reads none of them, which is what
// keeps pre-backend fingerprints (journals, snapshots, cache keys)
// valid.
func (c Config) Canonical() string {
	c = c.WithDefaults()
	switch c.Kind {
	case Bandwidth:
		return fmt.Sprintf("bandwidth|page_bytes=%d|bytes_per_tick=%d|latency_ticks=%d",
			c.PageBytes, c.BytesPerTick, c.LatencyTicks)
	case Hybrid:
		return fmt.Sprintf("hybrid|page_bytes=%d|fast_slots=%d|fast_read_ticks=%d|slow_read_ticks=%d|fast_write_ticks=%d|slow_write_ticks=%d",
			c.PageBytes, c.FastSlots, c.FastReadTicks, c.SlowReadTicks, c.FastWriteTicks, c.SlowWriteTicks)
	default:
		return string(Reference)
	}
}

// occupancy is the ticks one page transfer holds a bandwidth channel:
// ceil(PageBytes/BytesPerTick), at least 1 on a validated config.
func (c Config) occupancy() int { return (c.PageBytes + c.BytesPerTick - 1) / c.BytesPerTick }

// MissSlack bounds the ticks one miss can cost beyond one tick under c,
// with fetchLatency the reference model's latency: fetchLatency-1 for
// the reference model, and for the others the worst-case transfer time
// (hybrid's slow read plus slow write, if that is longer). The kernel's
// automatic tick cap allows every reference this much.
func MissSlack(c Config, fetchLatency int) int {
	c = c.WithDefaults()
	if c.Kind == Reference {
		return fetchLatency - 1
	}
	n := c.occupancy() + c.LatencyTicks
	if h := c.SlowReadTicks + c.SlowWriteTicks; c.Kind == Hybrid && h > n {
		n = h
	}
	return n
}

// New constructs the configured backend for a kernel with q far
// channels, the given reference-model fetch latency (which only the
// Reference backend reads) and the given number of cores. A core has at
// most one fetch outstanding, so the in-flight queue is preallocated to
// min(MaxInFlight, cores) transfers.
func New(c Config, channels, fetchLatency, cores int) (Backend, error) {
	c = c.WithDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if channels < 1 {
		return nil, fmt.Errorf("membackend: need channels >= 1, got %d", channels)
	}
	if cores < 1 {
		return nil, fmt.Errorf("membackend: need cores >= 1, got %d", cores)
	}
	switch c.Kind {
	case Reference:
		if fetchLatency > maxParam {
			return nil, fmt.Errorf("membackend: fetch latency must be <= %d, got %d", maxParam, fetchLatency)
		}
		if fetchLatency < 1 {
			fetchLatency = 1
		}
		return newReference(channels, fetchLatency, cores), nil
	case Bandwidth:
		return newBandwidth(c, channels, cores), nil
	case Hybrid:
		return newHybrid(c, channels, cores), nil
	}
	return nil, fmt.Errorf("membackend: unknown backend %q", c.Kind)
}

// Parse converts a backend name plus a comma-separated "key=value"
// parameter list (the CLI's -backend / -backend-params syntax; params
// may be empty) to a Config. An empty name selects Reference. Keys are
// the Config field's JSON names; unknown keys list the valid ones.
func Parse(name, params string) (Config, error) {
	if name == "" {
		name = string(Reference)
	}
	c := Config{Kind: Kind(name)}
	if !slices.Contains(Kinds(), c.Kind) {
		return Config{}, fmt.Errorf("membackend: unknown backend %q (known: %v)", name, Kinds())
	}
	if strings.TrimSpace(params) == "" {
		return c, c.Validate()
	}
	fields := map[string]*int{
		"page_bytes":       &c.PageBytes,
		"bytes_per_tick":   &c.BytesPerTick,
		"latency_ticks":    &c.LatencyTicks,
		"fast_slots":       &c.FastSlots,
		"fast_read_ticks":  &c.FastReadTicks,
		"slow_read_ticks":  &c.SlowReadTicks,
		"fast_write_ticks": &c.FastWriteTicks,
		"slow_write_ticks": &c.SlowWriteTicks,
	}
	for _, kv := range strings.Split(params, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		key = strings.TrimSpace(key)
		dst, knownKey := fields[key]
		if !ok || !knownKey {
			keys := make([]string, 0, len(fields))
			for k := range fields {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return c, fmt.Errorf("membackend: bad parameter %q (want key=value with keys %s)", kv, strings.Join(keys, ", "))
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			return c, fmt.Errorf("membackend: parameter %s: %v", key, err)
		}
		*dst = n
	}
	return c, c.Validate()
}
