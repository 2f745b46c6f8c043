package stackdist

import (
	"hbmsim/internal/model"
)

// Streaming maintains LRU stack distances and the induced miss-ratio
// curve incrementally, one access at a time, so a live observer can ask
// "what HBM size does the current phase need?" while the trace is still
// being generated. Observe performs exactly the per-access arithmetic of
// the batch Distances function (the same Fenwick-tree formulation), so
// feeding a trace through a Streaming yields, access for access, the
// distances Distances would report — a property the differential tests
// pin.
//
// Memory grows with the positions observed (one Fenwick slot per access,
// doubled amortised) plus one map entry and one distance-count slot per
// distinct page. Not safe for concurrent use; observers run on the
// simulation goroutine.
type Streaming struct {
	// pos marks each live page's most recent position, exactly as in
	// Distances: +1 at the latest access, the previous marker removed.
	pos *fenwick
	// posCap is the position capacity of pos (rebuilt at 2x on overflow).
	posCap int
	// last maps each page to its most recent position.
	last map[model.PageID]int
	// n is the number of accesses observed so far.
	n int
	// cold counts first-touch accesses (== distinct pages).
	cold uint64
	// distCounts[d-1] counts reuses at stack distance d; distTree mirrors
	// it as a Fenwick for O(log n) rank queries. Distances never exceed
	// the number of distinct pages, so the slice stays small.
	distCounts []int64
	distTree   *fenwick64
	finite     uint64
	maxDist    int64
}

// NewStreaming returns an empty incremental stack-distance tracker.
func NewStreaming() *Streaming {
	const initialCap = 1024
	return &Streaming{
		pos:    newFenwick(initialCap),
		posCap: initialCap,
		last:   make(map[model.PageID]int, 256),
	}
}

// Observe records one access and returns its LRU stack distance (-1 for
// a cold first touch), matching Distances' per-access output.
func (s *Streaming) Observe(p model.PageID) int64 {
	i := s.n
	s.n++
	if i >= s.posCap {
		s.growPositions()
	}
	var d int64 = -1
	if j, ok := s.last[p]; ok {
		d = int64(s.pos.sumRange(j+1, i-1)) + 1
		s.pos.add(j, -1)
		s.recordDistance(d)
	} else {
		s.cold++
	}
	s.pos.add(i, 1)
	s.last[p] = i
	return d
}

// growPositions doubles the position Fenwick. Only each live page's last
// position carries a marker (every reuse removes the previous one), so
// the rebuilt tree is reconstructed exactly from the last-position map.
func (s *Streaming) growPositions() {
	s.posCap *= 2
	s.pos = newFenwick(s.posCap)
	for _, j := range s.last {
		s.pos.add(j, 1)
	}
}

// recordDistance counts one finite reuse distance d >= 1.
func (s *Streaming) recordDistance(d int64) {
	if d > int64(len(s.distCounts)) {
		grown := make([]int64, nextPow2(int(d)))
		copy(grown, s.distCounts)
		s.distCounts = grown
		s.distTree = newFenwick64(len(grown))
		for i, c := range s.distCounts {
			if c != 0 {
				s.distTree.add(i, c)
			}
		}
	}
	s.distCounts[d-1]++
	s.distTree.add(int(d-1), 1)
	s.finite++
	if d > s.maxDist {
		s.maxDist = d
	}
}

func nextPow2(n int) int {
	c := 1
	for c < n {
		c *= 2
	}
	return c
}

// Total returns the number of accesses observed.
func (s *Streaming) Total() uint64 { return uint64(s.n) }

// Unique returns the number of distinct pages observed: the first-touch
// accesses.
func (s *Streaming) Unique() int { return len(s.last) }

// FiniteReuses returns the number of accesses with a finite distance.
func (s *Streaming) FiniteReuses() uint64 { return s.finite }

// MaxDistance returns the largest finite distance observed (0 if none).
func (s *Streaming) MaxDistance() int64 { return s.maxDist }

// CountLE returns the number of finite distances <= d.
func (s *Streaming) CountLE(d int64) uint64 {
	if d < 1 || s.distTree == nil {
		return 0
	}
	if d > int64(len(s.distCounts)) {
		d = int64(len(s.distCounts))
	}
	return uint64(s.distTree.sum(int(d - 1)))
}

// Misses returns the number of LRU misses the observed prefix incurs in
// a cache of size k, matching Curve.Misses: cold accesses miss at every
// size, and a reuse misses iff its distance exceeds k.
func (s *Streaming) Misses(k int) uint64 {
	if k <= 0 {
		return s.Total()
	}
	return s.cold + s.finite - s.CountLE(int64(k))
}

// MissRatio returns Misses(k) / Total, or 0 before the first access.
func (s *Streaming) MissRatio(k int) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.Misses(k)) / float64(s.n)
}

// DistanceQuantile returns the q-quantile (0..1) of the finite
// distances, with the same index convention as Curve.DistanceQuantile
// (rank int(q*(finite-1)) of the sorted distances); 0 when there are no
// reuses yet.
func (s *Streaming) DistanceQuantile(q float64) int64 {
	if s.finite == 0 {
		return 0
	}
	var rank uint64
	switch {
	case q <= 0:
		rank = 0
	case q >= 1:
		rank = s.finite - 1
	default:
		rank = uint64(q * float64(s.finite-1))
	}
	// Smallest d with CountLE(d) > rank, found by binary search on the
	// monotone prefix counts.
	lo, hi := int64(1), s.maxDist
	for lo < hi {
		mid := (lo + hi) / 2
		if s.CountLE(mid) > rank {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// fenwick64 is a Fenwick tree with int64 values for distance counts
// (reuse counts overflow int32 on long traces).
type fenwick64 struct {
	tree []int64
}

func newFenwick64(n int) *fenwick64 { return &fenwick64{tree: make([]int64, n+1)} }

func (f *fenwick64) add(i int, delta int64) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// sum returns the prefix sum over [0, i].
func (f *fenwick64) sum(i int) int64 {
	var s int64
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}
