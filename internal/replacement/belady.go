package replacement

import "hbmsim/internal/model"

// Belady is the kind of the clairvoyant offline policy below. It cannot be
// built by New (it needs the workload's future); construct it with
// NewBelady, or set it as core.Config.Replacement, which wires the traces
// through automatically.
const Belady Kind = "belady"

// beladyPolicy is a clairvoyant replacement policy in the spirit of
// Belady's MIN: evict the resident page whose next use is furthest in the
// future. Because the model's reference sequences are disjoint (Property
// 1), every page has a unique owning core, and "next use" is measured in
// the owner's own stream: the number of its remaining serves before the
// page is referenced again. This is the natural offline baseline for the
// makespan experiments — not exactly OPT (true OPT also chooses the
// channel schedule), but a strong clairvoyant lower-ish baseline that
// online policies can be compared against.
//
// The policy learns progress solely through the Store contract: each serve
// Touches the served page, which is exactly one step of its owner's
// stream, so the policy can track every core's position without extra
// hooks.
type beladyPolicy struct {
	// occ[p] lists the positions at which page p occurs in its owner's
	// trace; cursor[p] indexes the next not-yet-served occurrence.
	occ    map[model.PageID][]int32
	cursor map[model.PageID]int32
	owner  map[model.PageID]model.CoreID
	pos    []int32 // pos[c] = how many serves core c has received
	// resident tracks pages in eviction consideration, as a slice with a
	// page->index map for O(1) insert/remove and O(n) victim scans.
	resident []model.PageID
	index    map[model.PageID]int
}

// NewBelady builds the clairvoyant policy for the given per-core traces
// (which must be the exact traces the simulation will run, and disjoint).
func NewBelady(traces [][]model.PageID) Policy {
	b := &beladyPolicy{
		occ:    make(map[model.PageID][]int32),
		cursor: make(map[model.PageID]int32),
		owner:  make(map[model.PageID]model.CoreID),
		pos:    make([]int32, len(traces)),
		index:  make(map[model.PageID]int),
	}
	for c, tr := range traces {
		for i, p := range tr {
			b.occ[p] = append(b.occ[p], int32(i))
			b.owner[p] = model.CoreID(c)
		}
	}
	return b
}

func (b *beladyPolicy) Len() int { return len(b.resident) }

func (b *beladyPolicy) Contains(page model.PageID) bool {
	_, ok := b.index[page]
	return ok
}

func (b *beladyPolicy) Insert(page model.PageID) {
	if _, ok := b.index[page]; ok {
		return
	}
	b.index[page] = len(b.resident)
	b.resident = append(b.resident, page)
	b.syncCursor(page)
}

// Touch is called once per serve of page; it advances the owner's stream
// position and consumes the served occurrence.
func (b *beladyPolicy) Touch(page model.PageID) {
	owner, ok := b.owner[page]
	if !ok {
		return
	}
	served := b.pos[owner]
	b.pos[owner] = served + 1
	occ := b.occ[page]
	cur := b.cursor[page]
	for cur < int32(len(occ)) && occ[cur] <= served {
		cur++
	}
	b.cursor[page] = cur
}

// syncCursor fast-forwards the page's occurrence cursor past positions its
// owner has already served (relevant when a page is re-inserted after an
// eviction).
func (b *beladyPolicy) syncCursor(page model.PageID) {
	owner, ok := b.owner[page]
	if !ok {
		return
	}
	occ := b.occ[page]
	cur := b.cursor[page]
	for cur < int32(len(occ)) && occ[cur] < b.pos[owner] {
		cur++
	}
	b.cursor[page] = cur
}

// distance returns how many of its owner's serves remain before the page
// is used again; pages never used again report a large sentinel.
func (b *beladyPolicy) distance(page model.PageID) int32 {
	occ := b.occ[page]
	cur := b.cursor[page]
	if cur >= int32(len(occ)) {
		return 1 << 30
	}
	return occ[cur] - b.pos[b.owner[page]]
}

func (b *beladyPolicy) Evict() (model.PageID, bool) {
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

func (b *beladyPolicy) removeAt(page model.PageID, i int) {
	last := len(b.resident) - 1
	if i != last {
		moved := b.resident[last]
		b.resident[i] = moved
		b.index[moved] = i
	}
	b.resident = b.resident[:last]
	delete(b.index, page)
}
