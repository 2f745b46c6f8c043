// Package replacement implements block-replacement policies for the HBM:
// which resident page is evicted when new blocks arrive from DRAM and the
// HBM is full.
//
// The paper's theory and experiments use LRU (Sleator–Tarjan); FIFO and
// CLOCK are the classical alternatives it cites, and Random is included as
// a baseline for ablations. All implementations run each operation in O(1)
// (amortised for CLOCK).
package replacement

import (
	"fmt"

	"hbmsim/internal/model"
)

// Kind names a replacement policy.
type Kind string

// Replacement policy kinds.
const (
	LRU    Kind = "lru"
	FIFO   Kind = "fifo"
	Clock  Kind = "clock"
	Random Kind = "random"
)

// Kinds lists every supported policy kind.
func Kinds() []Kind { return []Kind{LRU, FIFO, Clock, Random} }

// Policy tracks the set of resident pages and chooses eviction victims.
// Implementations are not safe for concurrent use; the simulator is a
// synchronous tick machine and drives a Policy from a single goroutine.
type Policy interface {
	// Insert records that page became resident. The page must not already
	// be tracked.
	Insert(page model.PageID)
	// Touch records an access to a resident page (a serve from HBM). For
	// recency-based policies this refreshes the page; for FIFO it is a
	// no-op. Touching an untracked page is a no-op.
	Touch(page model.PageID)
	// Evict removes and returns the policy's victim. ok is false when no
	// pages are tracked.
	Evict() (page model.PageID, ok bool)
	// Contains reports whether the page is tracked.
	Contains(page model.PageID) bool
	// Len returns the number of tracked pages.
	Len() int
}

// New constructs a policy of the given kind. The seed is used only by
// Random; deterministic policies ignore it.
func New(kind Kind, seed int64) (Policy, error) {
	switch kind {
	case LRU:
		return newList(true), nil
	case FIFO:
		return newList(false), nil
	case Clock:
		return newClock(), nil
	case Random:
		return newRandom(seed), nil
	default:
		return nil, fmt.Errorf("replacement: unknown policy kind %q", kind)
	}
}

// MustNew is New but panics on error; for use with compile-time-constant
// kinds in tests and examples.
func MustNew(kind Kind, seed int64) Policy {
	p, err := New(kind, seed)
	if err != nil {
		panic(err)
	}
	return p
}
