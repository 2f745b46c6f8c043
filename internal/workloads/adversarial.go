package workloads

import (
	"fmt"

	"hbmsim/internal/memlog"
	"hbmsim/internal/model"
	"hbmsim/internal/trace"
)

// AdversarialConfig parameterises the paper's Dataset 3: the cyclic
// sequence 1, 2, ..., Pages repeated Reps times per core, which makes FIFO
// asymptotically worse than Priority when HBM is too small to hold every
// page ("FIFO performs poorly on this sequence when there is insufficient
// memory to keep everything paged in").
type AdversarialConfig struct {
	// Pages is the cycle length; the paper uses 256.
	Pages int
	// Reps is the number of repetitions; the paper uses 100.
	Reps int
}

func (c AdversarialConfig) withDefaults() AdversarialConfig {
	if c.Pages == 0 {
		c.Pages = 256
	}
	if c.Reps == 0 {
		c.Reps = 100
	}
	return c
}

// AdversarialTrace returns one core's cyclic trace.
func AdversarialTrace(cfg AdversarialConfig) (trace.Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.Pages <= 0 || cfg.Reps <= 0 {
		return nil, fmt.Errorf("workloads: adversarial pages (%d) and reps (%d) must be positive", cfg.Pages, cfg.Reps)
	}
	if uint64(cfg.Pages) > model.MaxPageID+1 {
		return nil, fmt.Errorf("workloads: adversarial pages (%d) pass the %d 32-bit page IDs", cfg.Pages, uint64(model.MaxPageID)+1)
	}
	out := make(trace.Trace, 0, cfg.Pages*cfg.Reps)
	for r := 0; r < cfg.Reps; r++ {
		for p := 0; p < cfg.Pages; p++ {
			out = append(out, model.PageID(p))
		}
	}
	return out, nil
}

// AdversarialWorkload builds a p-core workload of identical (but disjoint)
// cyclic traces.
func AdversarialWorkload(cores int, cfg AdversarialConfig) (*trace.Workload, error) {
	cfg = cfg.withDefaults()
	name := fmt.Sprintf("adversarial-p%d-r%d", cfg.Pages, cfg.Reps)
	return generate(name, cores, 0, func(int64, *memlog.FreeList) (trace.Trace, error) {
		return AdversarialTrace(cfg)
	})
}

// AdversarialHBMSlots returns the HBM size the paper pairs with this
// workload: "enough memory to fit only 1/4 of all the unique pages across
// all the threads".
func AdversarialHBMSlots(cores int, cfg AdversarialConfig) int {
	cfg = cfg.withDefaults()
	k := cores * cfg.Pages / 4
	if k < 1 {
		k = 1
	}
	return k
}
