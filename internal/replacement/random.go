package replacement

import (
	"math/rand"

	"hbmsim/internal/model"
)

// randomPolicy evicts a uniformly random resident page. It keeps pages in a
// slice with a page->index map, so Insert and Evict are both O(1)
// (swap-with-last deletion).
type randomPolicy struct {
	pages []model.PageID
	index map[model.PageID]int
	rng   *rand.Rand
}

func newRandom(seed int64) *randomPolicy {
	return &randomPolicy{
		index: make(map[model.PageID]int),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

func (r *randomPolicy) Len() int { return len(r.pages) }

func (r *randomPolicy) Contains(page model.PageID) bool {
	_, ok := r.index[page]
	return ok
}

func (r *randomPolicy) Insert(page model.PageID) {
	if _, ok := r.index[page]; ok {
		return
	}
	r.index[page] = len(r.pages)
	r.pages = append(r.pages, page)
}

func (r *randomPolicy) Touch(model.PageID) {}

func (r *randomPolicy) Evict() (model.PageID, bool) {
	if len(r.pages) == 0 {
		return 0, false
	}
	i := r.rng.Intn(len(r.pages))
	page := r.pages[i]
	r.removeAt(page, i)
	return page, true
}

func (r *randomPolicy) removeAt(page model.PageID, i int) {
	last := len(r.pages) - 1
	if i != last {
		moved := r.pages[last]
		r.pages[i] = moved
		r.index[moved] = i
	}
	r.pages = r.pages[:last]
	delete(r.index, page)
}
