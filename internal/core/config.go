// Package core implements the tick-accurate simulator of the HBM+DRAM
// model (§3.1 of the paper). Each tick executes the paper's five steps:
//
//  1. If the tick is a multiple of the remap period T, permute priorities.
//  2. Every core whose current request is not resident (and not already
//     queued) adds it to the DRAM request queue.
//  3. If the queue holds more requests than the HBM has empty slots, evict
//     up to q pages chosen by the replacement policy.
//  4. Every core whose current request is resident is served.
//  5. The arbiter releases up to q queued requests; their pages are fetched
//     from DRAM into HBM.
//
// The simulator is single-goroutine and fully deterministic for a given
// Config.Seed; parallelism across simulations lives in internal/sweep.
package core

import (
	"fmt"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/membackend"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// Config selects the policies and parameters of one simulation run.
type Config struct {
	// HBMSlots is k, the number of single-page slots in HBM. Must be >= 1
	// and >= Channels (the far channels must be able to land their pages).
	HBMSlots int
	// Channels is q, the number of far channels between HBM and DRAM.
	// Must be >= 1. The paper's theory covers q = 1 (Theorems 1-2) and
	// general q (Theorem 3).
	Channels int
	// Arbiter picks the far-channel arbitration policy. Defaults to FIFO.
	Arbiter arbiter.Kind
	// Replacement picks the HBM block-replacement policy. Defaults to LRU.
	// Ignored with MappingDirect, where slot conflicts decide evictions.
	Replacement replacement.Kind
	// Mapping selects the HBM organisation: fully associative (the
	// theory's setting, the default) or direct-mapped (the hardware
	// reality; Corollary 1 shows the two are asymptotically equivalent).
	Mapping Mapping
	// Permuter picks the priority-permutation scheme; meaningful only with
	// the Priority arbiter. Defaults to Static (the original Priority
	// policy). Dynamic with a RemapPeriod of 10k is the paper's
	// recommended Dynamic Priority configuration.
	Permuter arbiter.PermuterKind
	// RemapPeriod is T: priorities are re-permuted on every tick that is a
	// positive multiple of T. Zero disables remapping. The paper's
	// guarantee requires T >= k; it reports T in multiples of k.
	RemapPeriod model.Tick
	// FetchLatency generalises the model's unit block-transfer time: a
	// request granted a far channel at tick t lands in HBM at tick
	// t+FetchLatency-1 (and is served one tick later). Channels stay
	// pipelined — q grants per tick regardless — so this adds latency
	// without changing bandwidth. The paper's model is FetchLatency = 1,
	// the default ("the similar block-transfer time ... is captured by
	// setting all block-transfer times to 1").
	FetchLatency int
	// Backend selects the far-memory model (see internal/membackend):
	// the paper's one-tick-per-transfer far channel (the zero value), a
	// bandwidth/latency channel, or a hybrid fast/slow two-tier memory.
	// FetchLatency and Channels parameterise the reference model; the
	// other backends carry their parameters here.
	Backend membackend.Config
	// Seed drives all randomness (Dynamic permutation, Random policies).
	Seed int64
	// MaxTicks caps the run as a safety net; zero selects a generous
	// automatic cap (several times the total reference count, plus each
	// reference's transfer time past one tick). A run that hits the cap
	// returns a *TruncatedError.
	MaxTicks model.Tick
	// CollectHistogram additionally records a log-2 histogram of response
	// times (costs one histogram update per serve).
	CollectHistogram bool
}

// Mapping selects the HBM organisation.
type Mapping string

// HBM organisations.
const (
	// MappingAssociative is the fully-associative HBM of the model.
	MappingAssociative Mapping = "associative"
	// MappingDirect is a direct-mapped HBM using a 2-universal slot hash.
	MappingDirect Mapping = "direct"
)

// Mappings lists the supported HBM organisations.
func Mappings() []Mapping { return []Mapping{MappingAssociative, MappingDirect} }

// withDefaults fills zero-valued fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.Arbiter == "" {
		c.Arbiter = arbiter.FIFO
	}
	if c.Replacement == "" {
		c.Replacement = replacement.LRU
	}
	if c.Permuter == "" {
		c.Permuter = arbiter.Static
	}
	if c.Mapping == "" {
		c.Mapping = MappingAssociative
	}
	if c.FetchLatency == 0 {
		c.FetchLatency = 1
	}
	c.Backend = c.Backend.WithDefaults()
	return c
}

// Validate reports a configuration error, if any. p is the core count the
// configuration will run with.
func (c Config) Validate(p int) error {
	if p <= 0 {
		return fmt.Errorf("core: need at least one core, got %d", p)
	}
	if c.HBMSlots < 1 {
		return fmt.Errorf("core: HBMSlots must be >= 1, got %d", c.HBMSlots)
	}
	if c.Channels < 1 {
		return fmt.Errorf("core: Channels must be >= 1, got %d", c.Channels)
	}
	if c.Channels > c.HBMSlots {
		return fmt.Errorf("core: Channels (%d) must not exceed HBMSlots (%d): the far channels could not land their pages", c.Channels, c.HBMSlots)
	}
	if c.Mapping != "" {
		if _, err := ParseMapping(string(c.Mapping)); err != nil {
			return err
		}
	}
	if c.FetchLatency < 0 {
		return fmt.Errorf("core: FetchLatency must be >= 1 (or 0 for the default), got %d", c.FetchLatency)
	}
	if err := c.Backend.Validate(); err != nil {
		return err
	}
	return nil
}

// TruncatedError reports that a run hit its tick cap before every core
// finished. The partial Result is still returned alongside it.
type TruncatedError struct {
	// Ticks is the cap that was hit.
	Ticks model.Tick
	// Unfinished is the number of cores that had references left.
	Unfinished int
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("core: simulation truncated at tick %d with %d unfinished cores (livelock or cap too low)", e.Ticks, e.Unfinished)
}
