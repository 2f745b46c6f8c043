package arbiter

import (
	"fmt"
	"math/rand"

	"hbmsim/internal/detrand"
)

// PermuterKind names a priority-permutation scheme (Definition 1 in the
// paper, plus the two extra deterministic schemes mentioned in §1.2).
type PermuterKind string

// Permuter kinds. Static leaves the identity permutation in place forever
// (the original Priority policy); Dynamic draws a fresh uniformly random
// permutation every interval (Dynamic Priority); Cycle rotates every rank
// by one (Cycle Priority); CycleReverse rotates the other way; Interleave
// riffles the top and bottom halves of the rank order.
const (
	Static       PermuterKind = "static"
	Dynamic      PermuterKind = "dynamic"
	Cycle        PermuterKind = "cycle"
	CycleReverse PermuterKind = "cycle-reverse"
	Interleave   PermuterKind = "interleave"
)

// PermuterKinds lists every supported permuter kind.
func PermuterKinds() []PermuterKind {
	return []PermuterKind{Static, Dynamic, Cycle, CycleReverse, Interleave}
}

// Permuter rewrites the priority permutation in place. pri[c] is core c's
// rank; after Permute, pri must still be a permutation of 0..p-1.
type Permuter interface {
	// Permute rewrites pri in place.
	Permute(pri []int32)
}

// NewPermuter constructs a permuter of the given kind. The seed is used
// only by Dynamic.
func NewPermuter(kind PermuterKind, seed int64) (Permuter, error) {
	switch kind {
	case Static:
		return staticPermuter{}, nil
	case Dynamic:
		src := detrand.NewSource(seed)
		return &dynamicPermuter{src: src, rng: rand.New(src)}, nil
	case Cycle:
		return cyclePermuter{step: 1}, nil
	case CycleReverse:
		return cyclePermuter{step: -1}, nil
	case Interleave:
		return interleavePermuter{}, nil
	default:
		return nil, fmt.Errorf("arbiter: unknown permuter kind %q", kind)
	}
}

// MustNewPermuter is NewPermuter but panics on error.
func MustNewPermuter(kind PermuterKind, seed int64) Permuter {
	p, err := NewPermuter(kind, seed)
	if err != nil {
		panic(err)
	}
	return p
}

type staticPermuter struct{}

func (staticPermuter) Permute([]int32) {}

// dynamicPermuter draws from a counting detrand.Source so checkpoints
// can record the permutation stream's position.
type dynamicPermuter struct {
	src *detrand.Source
	rng *rand.Rand
}

func (d *dynamicPermuter) Permute(pri []int32) {
	// A fresh uniformly random permutation, independent of the current one
	// (Definition 1: replace pi with random permutation pi').
	for i := range pri {
		pri[i] = int32(i)
	}
	d.rng.Shuffle(len(pri), func(i, j int) { pri[i], pri[j] = pri[j], pri[i] })
}

type cyclePermuter struct {
	step int32
}

func (c cyclePermuter) Permute(pri []int32) {
	p := int32(len(pri))
	if p == 0 {
		return
	}
	for i := range pri {
		pri[i] = ((pri[i]+c.step)%p + p) % p
	}
}

type interleavePermuter struct{}

// Permute riffle-shuffles the rank order: ranks from the top half map to
// even ranks and ranks from the bottom half map to odd ranks, so cores that
// were far apart in the pecking order become adjacent.
func (interleavePermuter) Permute(pri []int32) {
	p := int32(len(pri))
	if p == 0 {
		return
	}
	half := (p + 1) / 2
	for i := range pri {
		if r := pri[i]; r < half {
			pri[i] = 2 * r
		} else {
			pri[i] = 2*(r-half) + 1
		}
	}
}
