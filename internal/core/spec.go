package core

import (
	"fmt"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/membackend"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// ConfigSpec is the text form of Config, shared by the `hbmsim` flags
// and the job service's JSON. Policy kinds are strings ("fifo",
// "priority", ...) validated against the simulator's known kinds;
// zero-valued fields take the simulator's documented defaults.
type ConfigSpec struct {
	HBMSlots     int    `json:"hbm_slots"`
	Channels     int    `json:"channels,omitempty"`
	Arbiter      string `json:"arbiter,omitempty"`
	Replacement  string `json:"replacement,omitempty"`
	Mapping      string `json:"mapping,omitempty"`
	Permuter     string `json:"permuter,omitempty"`
	RemapPeriod  uint64 `json:"remap_period,omitempty"`
	FetchLatency int    `json:"fetch_latency,omitempty"`
	// Backend names the far-memory model (reference, bandwidth, hybrid);
	// empty selects the paper's reference model. BackendParams carries the
	// backend's parameters in the CLI's comma-separated key=value syntax
	// (e.g. "bytes_per_tick=8,latency_ticks=9"); keys are
	// membackend.Config's JSON names.
	Backend       string `json:"backend,omitempty"`
	BackendParams string `json:"backend_params,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
	MaxTicks      uint64 `json:"max_ticks,omitempty"`
}

// Config converts the spec to a Config, validating every named policy
// kind. Channels defaults to 1 (the paper's single far channel); the
// remaining zero fields take Config's own defaults.
func (c ConfigSpec) Config() (Config, error) {
	cfg := Config{
		HBMSlots:     c.HBMSlots,
		Channels:     c.Channels,
		RemapPeriod:  model.Tick(c.RemapPeriod),
		FetchLatency: c.FetchLatency,
		Seed:         c.Seed,
		MaxTicks:     model.Tick(c.MaxTicks),
	}
	if cfg.Channels == 0 {
		cfg.Channels = 1
	}
	var err error
	if c.Arbiter != "" {
		if cfg.Arbiter, err = ParseArbiter(c.Arbiter); err != nil {
			return cfg, err
		}
	}
	if c.Replacement != "" {
		if cfg.Replacement, err = ParseReplacement(c.Replacement); err != nil {
			return cfg, err
		}
	}
	if c.Mapping != "" {
		if cfg.Mapping, err = ParseMapping(c.Mapping); err != nil {
			return cfg, err
		}
	}
	if c.Permuter != "" {
		if cfg.Permuter, err = ParsePermuter(c.Permuter); err != nil {
			return cfg, err
		}
	}
	if c.Backend != "" || c.BackendParams != "" {
		if cfg.Backend, err = membackend.Parse(c.Backend, c.BackendParams); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// ParseArbiter checks an arbitration policy name.
func ParseArbiter(s string) (arbiter.Kind, error) {
	return parseKind("arbiter", s, arbiter.Kinds())
}

// ParseReplacement checks a replacement policy name. Belady is accepted
// beside replacement.Kinds: New wires the workload's future into it.
func ParseReplacement(s string) (replacement.Kind, error) {
	return parseKind("replacement", s, append(replacement.Kinds(), replacement.Belady))
}

// ParsePermuter checks a priority-permuter name.
func ParsePermuter(s string) (arbiter.PermuterKind, error) {
	return parseKind("permuter", s, arbiter.PermuterKinds())
}

// ParseMapping checks an HBM organisation name.
func ParseMapping(s string) (Mapping, error) {
	return parseKind("mapping", s, Mappings())
}

func parseKind[K ~string](what, s string, known []K) (K, error) {
	for _, k := range known {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("core: unknown %s %q (known: %v)", what, s, known)
}
