package stackdist

import (
	"hbmsim/internal/model"
)

// Streaming builds a Curve one access at a time, so a live observer can
// ask "what HBM size does the current phase need?" while the trace is
// still being generated; CurveOf is a Streaming fed a whole trace. The
// embedded Curve answers the queries for the prefix observed so far. A
// copy of it shares its counts with the builder, so it is current only
// until the next Observe.
//
// Distances use the Fenwick-tree formulation of Mattson's algorithm:
// each live page carries one marker at its most recent position, and an
// access's distance is one plus the markers after its page's previous
// position. Memory grows with the positions observed (4 bytes per
// access, doubled amortised) plus one map entry and one distance count
// per distinct page. Not safe for concurrent use; observers run on the
// simulation goroutine.
type Streaming struct {
	Curve
	// pos holds the position markers, doubled when the accesses
	// outgrow it.
	pos fenwick[int32]
	// last maps each page to its most recent position.
	last map[model.PageID]int
}

// NewStreaming returns an empty incremental stack-distance tracker.
func NewStreaming() *Streaming {
	const initialSize = 1024
	return &Streaming{
		Curve: Curve{counts: newFenwick[int64](initialSize)},
		pos:   newFenwick[int32](initialSize),
		last:  make(map[model.PageID]int, 256),
	}
}

// Observe records one access and returns its LRU stack distance: the
// number of distinct pages referenced since the previous access to the
// same page, so the access hits in an LRU cache of size k iff its
// distance is <= k. A cold first touch reports -1.
func (s *Streaming) Observe(p model.PageID) int64 {
	i := int(s.Total())
	if i == len(s.pos)-1 {
		s.pos = s.pos.grow(i + 1)
	}
	var d int64 = -1
	if j, ok := s.last[p]; ok {
		// Every marker sits before i, one per live page, so the markers
		// after j number len(last) minus those up to j.
		d = int64(len(s.last)-int(s.pos.sum(j))) + 1
		s.pos.add(j, -1)
		if int(d) >= len(s.counts) {
			s.counts = s.counts.grow(int(d))
		}
		s.counts.add(int(d-1), 1)
		s.finite++
	} else {
		s.cold++
	}
	s.pos.add(i, 1)
	s.last[p] = i
	return d
}

// fenwick is a Fenwick (binary indexed) tree over positions 0..len-2,
// a power of two of them.
type fenwick[T int32 | int64] []T

func newFenwick[T int32 | int64](n int) fenwick[T] { return make(fenwick[T], n+1) }

func (f fenwick[T]) add(i int, delta T) {
	for i++; i < len(f); i += i & (-i) {
		f[i] += delta
	}
}

// sum returns the prefix sum over [0, i].
func (f fenwick[T]) sum(i int) T {
	var s T
	for i++; i > 0; i -= i & (-i) {
		s += f[i]
	}
	return s
}

// grow returns a copy of the tree doubled until it holds need
// positions. The old nodes keep their ranges, each new power-of-two
// node covers every old position, and every other new node covers new
// positions only.
func (f fenwick[T]) grow(need int) fenwick[T] {
	n := len(f) - 1
	m := n
	for m < need {
		m *= 2
	}
	g := newFenwick[T](m)
	copy(g, f)
	for p := 2 * n; p <= m; p *= 2 {
		g[p] = f[n]
	}
	return g
}
