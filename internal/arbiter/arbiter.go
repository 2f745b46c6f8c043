// Package arbiter implements far-channel arbitration policies: given the
// queue of outstanding block requests to DRAM, decide which (up to q) are
// fulfilled each tick.
//
// The paper contrasts three families:
//
//   - FIFO (first-come-first-served), what DRAM controllers ship today; it
//     is Ω(p)-competitive in the worst case.
//   - Priority: a static pecking order among cores; O(1)-competitive for
//     q = 1 and O(q)-competitive in general (Das et al. 2020, Theorem 3).
//   - Random selection, the limiting behaviour of Dynamic Priority as the
//     remap interval T approaches 1.
//
// Dynamic Priority, Cycle Priority and friends are the Priority arbiter
// combined with a Permuter (see permute.go) that rewrites the priority
// permutation every T ticks.
package arbiter

import (
	"fmt"

	"hbmsim/internal/model"
)

// Kind names an arbitration policy.
type Kind string

// Arbitration policy kinds.
const (
	FIFO     Kind = "fifo"
	Priority Kind = "priority"
	Random   Kind = "random"
)

// Kinds lists every supported arbiter kind.
func Kinds() []Kind { return []Kind{FIFO, Priority, Random} }

// Arbiter is a queue of outstanding DRAM requests with a policy-defined pop
// order. At most one request per core is queued at any time (the model's
// cores block on their current request), so the queue never exceeds p
// entries. Implementations are not safe for concurrent use.
type Arbiter interface {
	// Push enqueues a request. The request's core must not already have a
	// request queued.
	Push(r model.Request)
	// Pop dequeues the request the policy serves next. ok is false when
	// the queue is empty.
	Pop() (r model.Request, ok bool)
	// Len returns the number of queued requests.
	Len() int
	// UpdatePriorities informs the arbiter that the priority permutation
	// changed. pri[c] is the priority rank of core c: rank 0 is served
	// first, and pri must be a permutation of the cores. FIFO and Random
	// ignore it.
	UpdatePriorities(pri []int32)
	// Requests appends the queued requests to dst and returns the
	// extended slice. Resume calls it to check a restored queue against
	// the cores' state.
	Requests(dst []model.Request) []model.Request
}

// New constructs an arbiter of the given kind for p cores. The seed is used
// only by Random. A Priority arbiter starts with the identity permutation
// (core i has rank i) until UpdatePriorities is called.
func New(kind Kind, p int, seed int64) (Arbiter, error) {
	if p <= 0 {
		return nil, fmt.Errorf("arbiter: core count must be positive, got %d", p)
	}
	switch kind {
	case FIFO:
		return newFIFO(p), nil
	case Priority:
		return newPriority(p), nil
	case Random:
		return newRandom(seed, p), nil
	default:
		return nil, fmt.Errorf("arbiter: unknown policy kind %q", kind)
	}
}

// MustNew is New but panics on error.
func MustNew(kind Kind, p int, seed int64) Arbiter {
	a, err := New(kind, p, seed)
	if err != nil {
		panic(err)
	}
	return a
}
