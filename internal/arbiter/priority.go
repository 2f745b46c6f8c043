package arbiter

import (
	"fmt"
	"math/bits"

	"hbmsim/internal/model"
)

// priorityArbiter serves the queued request whose core has the best
// (lowest) priority rank.
//
// The model admits at most one outstanding request per core (a core
// blocks until its current reference is served), and ranks are a
// permutation of the cores, so at any moment at most one queued request
// holds each rank. That makes a priority queue unnecessary: requests
// live in a slot array indexed by rank with an occupancy bitmask, so
// Push is O(1) and Pop finds the lowest set bit in O(p/64) words with no
// comparison calls — this replaced a binary heap whose sift loops were
// ~20% of simulator time under the Priority arbiter. When the priority
// permutation is rewritten (Dynamic/Cycle Priority), the queued
// requests are re-slotted under the new ranks in O(p). A second request
// at an occupied rank breaks the contract and panics.
type priorityArbiter struct {
	pri    []int32 // pri[c] = rank of core c; rank 0 pops first
	byRank []model.Request
	words  []uint64 // occupancy bitmask over ranks
	// scratch buffers the rebuild in UpdatePriorities.
	scratch []model.Request
	n       int
}

func newPriority(p int) *priorityArbiter {
	pri := make([]int32, p)
	for i := range pri {
		pri[i] = int32(i) // identity permutation: static Priority
	}
	return &priorityArbiter{
		pri:    pri,
		byRank: make([]model.Request, p),
		words:  make([]uint64, (p+63)/64),
	}
}

func (a *priorityArbiter) Len() int { return a.n }

func (a *priorityArbiter) UpdatePriorities(pri []int32) {
	copy(a.pri, pri)
	// Re-slot every queued request under its new rank.
	a.scratch = a.Requests(a.scratch[:0])
	clear(a.words)
	for _, r := range a.scratch {
		a.place(r)
	}
}

// Requests implements Arbiter: the slotted requests in rank order.
func (a *priorityArbiter) Requests(dst []model.Request) []model.Request {
	for wi, w := range a.words {
		for w != 0 {
			dst = append(dst, a.byRank[wi*64+bits.TrailingZeros64(w)])
			w &= w - 1
		}
	}
	return dst
}

// place slots a request by its core's current rank.
func (a *priorityArbiter) place(r model.Request) {
	rank := int(a.pri[r.Core])
	if a.occupied(rank) {
		panic(fmt.Sprintf("arbiter: cores %d and %d both queued at priority rank %d", a.byRank[rank].Core, r.Core, rank))
	}
	a.words[rank>>6] |= uint64(1) << (rank & 63)
	a.byRank[rank] = r
}

// occupied reports whether a queued request holds rank.
func (a *priorityArbiter) occupied(rank int) bool {
	return a.words[rank>>6]&(uint64(1)<<(rank&63)) != 0
}

func (a *priorityArbiter) Push(r model.Request) {
	a.place(r)
	a.n++
}

func (a *priorityArbiter) Pop() (model.Request, bool) {
	if a.n == 0 {
		return model.Request{}, false
	}
	rank := 0
	for wi, w := range a.words {
		if w != 0 {
			rank = wi*64 + bits.TrailingZeros64(w)
			break
		}
	}
	a.words[rank>>6] &^= uint64(1) << (rank & 63)
	a.n--
	return a.byRank[rank], true
}
