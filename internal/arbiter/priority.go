package arbiter

import (
	"math/bits"

	"hbmsim/internal/model"
)

// priorityArbiter serves the queued request whose core has the best
// (lowest) priority rank, breaking rank ties by arrival order.
//
// The model admits at most one outstanding request per core (a core
// blocks until its current reference is served), and ranks are a
// permutation of the cores, so at any moment at most one queued request
// holds each rank. That makes a priority queue unnecessary: requests
// live in a slot array indexed by rank with an occupancy bitmask, so
// Push is O(1) and Pop finds the lowest set bit in O(p/64) words with no
// comparison calls — this replaced a binary heap whose sift loops were
// ~20% of simulator time under the Priority arbiter. Requests whose
// rank is already occupied or out of range (possible only through a
// non-permutation UpdatePriorities) overflow to a spill slice ordered by
// linear scan, preserving the exact (rank, seq) pop order of the heap;
// the spill stays empty in every simulator run. When the priority
// permutation is rewritten (Dynamic/Cycle Priority), the queued
// requests are re-slotted under the new ranks in O(p).
type priorityArbiter struct {
	pri    []int32 // pri[c] = rank of core c; rank 0 pops first
	byRank []model.Request
	words  []uint64 // occupancy bitmask over ranks
	spill  []model.Request
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
	a.scratch = a.scratch[:0]
	for wi, w := range a.words {
		for w != 0 {
			r := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			a.scratch = append(a.scratch, a.byRank[r])
		}
		a.words[wi] = 0
	}
	a.scratch = append(a.scratch, a.spill...)
	a.spill = a.spill[:0]
	for _, r := range a.scratch {
		a.place(r)
	}
}

// place slots a request by its core's current rank; duplicate or
// out-of-range ranks go to the spill (lower seq keeps the slot).
func (a *priorityArbiter) place(r model.Request) {
	rank := int(a.pri[r.Core])
	if rank < 0 || rank >= len(a.byRank) {
		a.spill = append(a.spill, r)
		return
	}
	wi, bit := rank>>6, uint64(1)<<(rank&63)
	if a.words[wi]&bit == 0 {
		a.words[wi] |= bit
		a.byRank[rank] = r
		return
	}
	if cur := a.byRank[rank]; r.Seq < cur.Seq {
		a.byRank[rank] = r
		a.spill = append(a.spill, cur)
	} else {
		a.spill = append(a.spill, r)
	}
}

func (a *priorityArbiter) Push(r model.Request) {
	a.place(r)
	a.n++
}

// spillBest returns the index of the spill entry with the smallest
// (rank, seq).
func (a *priorityArbiter) spillBest() int {
	best := 0
	for i := 1; i < len(a.spill); i++ {
		ri, rb := a.pri[a.spill[i].Core], a.pri[a.spill[best].Core]
		if ri < rb || (ri == rb && a.spill[i].Seq < a.spill[best].Seq) {
			best = i
		}
	}
	return best
}

func (a *priorityArbiter) Pop() (model.Request, bool) {
	if a.n == 0 {
		return model.Request{}, false
	}
	rank := -1
	for wi, w := range a.words {
		if w != 0 {
			rank = wi*64 + bits.TrailingZeros64(w)
			break
		}
	}
	if len(a.spill) != 0 {
		// Slow path (non-permutation ranks only): the spill may hold the
		// overall best, or tie the slotted rank with an earlier seq.
		best := a.spillBest()
		sr := int(a.pri[a.spill[best].Core])
		if rank < 0 || sr < rank || (sr == rank && a.spill[best].Seq < a.byRank[rank].Seq) {
			r := a.spill[best]
			a.spill = append(a.spill[:best], a.spill[best+1:]...)
			a.n--
			return r, true
		}
	}
	a.words[rank>>6] &^= uint64(1) << (rank & 63)
	a.n--
	return a.byRank[rank], true
}
