package arbiter

import "hbmsim/internal/model"

// fifoArbiter serves requests strictly in arrival order using a growable
// ring buffer. This is the FCFS policy the paper shows to be
// Ω(p)-competitive in the worst case.
//
// The ring capacity is always a power of two, so Push and Pop wrap with
// a mask instead of a modulo — the two integer divisions this removes
// sat directly on the simulator's queue path. The ring is pre-sized for
// p outstanding requests (the model's cores block on their current
// request, so the queue never exceeds p in normal operation); grow stays
// as a safety net for callers that push beyond the stated contract.
type fifoArbiter struct {
	buf  []model.Request
	head int
	mask int
	n    int
}

// newFIFO sizes the ring for p cores.
func newFIFO(p int) *fifoArbiter {
	c := ringCap(p)
	return &fifoArbiter{buf: make([]model.Request, c), mask: c - 1}
}

// ringCap rounds n up to a power of two, with a small floor.
func ringCap(n int) int {
	c := 16
	for c < n {
		c <<= 1
	}
	return c
}

func (f *fifoArbiter) Len() int { return f.n }

func (f *fifoArbiter) UpdatePriorities([]int32) {}

func (f *fifoArbiter) Push(r model.Request) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&f.mask] = r
	f.n++
}

func (f *fifoArbiter) Pop() (model.Request, bool) {
	if f.n == 0 {
		return model.Request{}, false
	}
	r := f.buf[f.head]
	f.head = (f.head + 1) & f.mask
	f.n--
	return r, true
}

func (f *fifoArbiter) grow() {
	nb := make([]model.Request, 2*len(f.buf))
	for i := 0; i < f.n; i++ {
		nb[i] = f.buf[(f.head+i)&f.mask]
	}
	f.buf = nb
	f.head = 0
	f.mask = len(nb) - 1
}
