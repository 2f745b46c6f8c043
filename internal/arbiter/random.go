package arbiter

import (
	"math/rand"

	"hbmsim/internal/detrand"
	"hbmsim/internal/model"
)

// randomArbiter pops a uniformly random queued request. This is the
// limiting behaviour of Dynamic Priority as the remap interval T goes to 1:
// every thread has the same expected wait, like FIFO, but without FIFO's
// arrival-order head-of-line coupling.
//
// The rng runs over a counting detrand.Source so a checkpoint can record
// the stream position; the wrapper forwards draws one-for-one, keeping
// pop sequences bit-identical to a bare rand.NewSource.
type randomArbiter struct {
	reqs []model.Request
	src  *detrand.Source
	rng  *rand.Rand
}

// newRandom pre-sizes the queue for p cores (at most one outstanding
// request each), so steady-state Push never reallocates.
func newRandom(seed int64, p int) *randomArbiter {
	src := detrand.NewSource(seed)
	return &randomArbiter{reqs: make([]model.Request, 0, p), src: src, rng: rand.New(src)}
}

func (a *randomArbiter) Len() int { return len(a.reqs) }

func (a *randomArbiter) UpdatePriorities([]int32) {}

func (a *randomArbiter) Push(r model.Request) { a.reqs = append(a.reqs, r) }

func (a *randomArbiter) Pop() (model.Request, bool) {
	n := len(a.reqs)
	if n == 0 {
		return model.Request{}, false
	}
	i := a.rng.Intn(n)
	r := a.reqs[i]
	a.reqs[i] = a.reqs[n-1]
	a.reqs = a.reqs[:n-1]
	return r, true
}
