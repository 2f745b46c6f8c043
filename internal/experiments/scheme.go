package experiments

import (
	"fmt"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/core"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// scheme is one queuing policy over LRU: an arbiter, the permuter that
// reorders its priorities, and the remap interval between permutations.
type scheme struct {
	name string
	kind arbiter.Kind
	perm arbiter.PermuterKind
	// tMult is the remap interval in units of k (0 = no remapping).
	tMult float64
}

var (
	// fifo is plain FCFS.
	fifo = scheme{name: "FIFO", kind: arbiter.FIFO}
	// priority is static Priority.
	priority = scheme{name: "Priority", kind: arbiter.Priority, perm: arbiter.Static}
	// random is the purely random arbiter (Dynamic Priority's T→1 limit).
	random = scheme{name: "Random", kind: arbiter.Random}
)

// dynamic is Dynamic Priority remapping every mult*k ticks.
func dynamic(mult float64) scheme {
	return scheme{name: fmt.Sprintf("Dynamic Priority T=%gk", mult),
		kind: arbiter.Priority, perm: arbiter.Dynamic, tMult: mult}
}

// cycle is Cycle Priority rotating the priorities every mult*k ticks.
func cycle(mult float64) scheme {
	return scheme{name: fmt.Sprintf("Cycle Priority T=%gk", mult),
		kind: arbiter.Priority, perm: arbiter.Cycle, tMult: mult}
}

// named returns sc under another row label.
func (sc scheme) named(name string) scheme {
	sc.name = name
	return sc
}

// config is the simulator configuration running sc on k HBM slots and
// o.Channels far channels. Every simulation in the package starts from
// it and sets only the field its sweep varies.
func (sc scheme) config(o Options, k int, seed int64) core.Config {
	return core.Config{
		HBMSlots:    k,
		Channels:    o.Channels,
		Arbiter:     sc.kind,
		Permuter:    sc.perm,
		RemapPeriod: model.Tick(sc.tMult * float64(k)),
		Replacement: replacement.LRU,
		Seed:        seed,
	}
}

// tradeoffSchemes builds the paper's scheme list: FIFO, Dynamic Priority
// and Cycle Priority at each T, and static Priority.
func tradeoffSchemes(o Options) []scheme {
	out := []scheme{fifo}
	for _, m := range o.RemapMultipliers {
		out = append(out, dynamic(m))
	}
	for _, m := range o.RemapMultipliers {
		out = append(out, cycle(m))
	}
	return append(out, priority)
}
