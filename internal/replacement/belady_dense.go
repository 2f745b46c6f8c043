package replacement

import "hbmsim/internal/model"

// denseBelady is beladyPolicy over a dense page universe: the occurrence
// lists live in one CSR-layout array (start[p] .. start[p+1] index into
// occ), and the cursor, owner, and residency indices are flat slices, so
// Touch and Contains — the per-serve hot path — are pure array reads.
type denseBelady struct {
	occ    []int32 // concatenated occurrence positions, grouped by page
	start  []int32 // page p's occurrences are occ[start[p]:start[p+1]]
	cursor []int32 // page -> global occ index of the next unserved occurrence
	owner  []int32 // page -> owning core (disjointness: exactly one)
	pos    []int32 // core -> how many serves the core has received
	// resident tracks pages in eviction consideration, as a slice with a
	// flat page->index slice for O(1) insert/remove and O(n) victim scans.
	resident []model.PageID
	index    []int32 // page -> position in resident, or -1
}

// NewBeladyDense builds the clairvoyant policy for per-core traces whose
// pages have been compacted to [0, universe) (which must be the exact
// traces the simulation will run, and disjoint). It makes the same
// eviction decisions as NewBelady on the original traces.
func NewBeladyDense(traces [][]model.PageID, universe int) Policy {
	b := &denseBelady{
		start:  make([]int32, universe+1),
		cursor: make([]int32, universe),
		owner:  make([]int32, universe),
		pos:    make([]int32, len(traces)),
		index:  make([]int32, universe),
	}
	// CSR construction: count occurrences per page, prefix-sum into
	// start, then fill occ using cursor as the per-page fill pointer.
	total := 0
	for _, tr := range traces {
		total += len(tr)
	}
	counts := make([]int32, universe)
	for c, tr := range traces {
		for _, p := range tr {
			counts[p]++
			b.owner[p] = int32(c)
		}
	}
	var sum int32
	for p, n := range counts {
		b.start[p] = sum
		b.cursor[p] = sum
		sum += n
	}
	b.start[universe] = sum
	b.occ = make([]int32, total)
	for _, tr := range traces {
		for i, p := range tr {
			b.occ[b.cursor[p]] = int32(i)
			b.cursor[p]++
		}
	}
	for p := range b.cursor {
		b.cursor[p] = b.start[p]
		b.index[p] = -1
	}
	return b
}

func (b *denseBelady) Len() int { return len(b.resident) }

func (b *denseBelady) Contains(page model.PageID) bool { return b.index[page] >= 0 }

func (b *denseBelady) Insert(page model.PageID) {
	if b.index[page] >= 0 {
		return
	}
	b.index[page] = int32(len(b.resident))
	b.resident = append(b.resident, page)
	b.syncCursor(page)
}

// Touch is called once per serve of page; it advances the owner's stream
// position and consumes the served occurrence.
func (b *denseBelady) Touch(page model.PageID) {
	owner := b.owner[page]
	served := b.pos[owner]
	b.pos[owner] = served + 1
	end := b.start[page+1]
	cur := b.cursor[page]
	for cur < end && b.occ[cur] <= served {
		cur++
	}
	b.cursor[page] = cur
}

// syncCursor fast-forwards the page's occurrence cursor past positions
// its owner has already served (relevant when a page is re-inserted
// after an eviction).
func (b *denseBelady) syncCursor(page model.PageID) {
	owner := b.owner[page]
	end := b.start[page+1]
	cur := b.cursor[page]
	for cur < end && b.occ[cur] < b.pos[owner] {
		cur++
	}
	b.cursor[page] = cur
}

// distance returns how many of its owner's serves remain before the page
// is used again; pages never used again report the same large sentinel
// as beladyPolicy.
func (b *denseBelady) distance(page model.PageID) int32 {
	cur := b.cursor[page]
	if cur >= b.start[page+1] {
		return 1 << 30
	}
	return b.occ[cur] - b.pos[b.owner[page]]
}

func (b *denseBelady) Evict() (model.PageID, bool) {
	if len(b.resident) == 0 {
		return 0, false
	}
	bestIdx := 0
	bestDist := int32(-1)
	for i, p := range b.resident {
		if d := b.distance(p); d > bestDist {
			bestDist = d
			bestIdx = i
		}
	}
	page := b.resident[bestIdx]
	b.removeAt(page, bestIdx)
	return page, true
}

func (b *denseBelady) removeAt(page model.PageID, i int) {
	last := len(b.resident) - 1
	if i != last {
		moved := b.resident[last]
		b.resident[i] = moved
		b.index[moved] = int32(i)
	}
	b.resident = b.resident[:last]
	b.index[page] = -1
}
