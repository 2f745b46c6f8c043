package main

import "time"

// The end-to-end times are reported at a reference host speed. A shared
// VM runs the simulator's kind of code up to 1.4x slower for minutes at a
// time, on both vCPUs at once, while a register-only loop slows by a
// third as much; no clock the guest can read shows it. Between operations
// the harness therefore times a reference kernel, an LRU replay written
// here and never changed by the program, whose working set and mix of
// hash lookups, list relinks and trace streaming resemble a simulation's.
// On a 2-vCPU shared Xeon VM its slowdown tracked the simulator's to
// within 4% (quartile spread of their ratio over 25 s windows, against 14%
// for the raw simulator times). A time t measured while the kernel took r
// seconds is reported as t * refNominal / r.
const (
	// refNominal is the kernel's time on a quiet host: the unit the
	// reported times are scaled to.
	refNominal = 0.035
	// refDuty is the share of the operations' time the kernel runs for,
	// interleaved with them.
	refDuty = 0.05
	// minRefRuns is the fewest kernel runs a phase or a set-up series
	// takes, however short it is.
	minRefRuns = 5
)

// Kernel shape: a fixed trace of refRefs references over refPages pages
// with runs of sequential pages, replayed through an LRU of refSlots.
const (
	refRefs  = 400_000
	refPages = 40_000
	refSlots = 4_000
)

// refSeries times the reference kernel between timed steps (set-ups, or
// operations), for refDuty of the steps' time.
type refSeries struct {
	k     *refKernel
	times []float64 // kernel run times
	spent float64   // their sum
	timed float64   // the steps' time
}

// after accounts a step that took secs and runs the kernel for its share.
func (r *refSeries) after(secs float64) {
	r.timed += secs
	for r.spent < refDuty*r.timed {
		r.run()
	}
}

func (r *refSeries) run() {
	d := r.k.run()
	r.times = append(r.times, d)
	r.spent += d
}

// median returns the median kernel time, first running the kernel until
// it has minRefRuns times.
func (r *refSeries) median() float64 {
	for len(r.times) < minRefRuns {
		r.run()
	}
	return quantile(r.times, 0.5)
}

type lruNode struct {
	prev, next int32
	page       uint32
}

// refKernel replays its trace through an LRU held as a map and an
// intrusive list. Its state is allocated once, so a run allocates nothing
// and triggers no garbage collection.
type refKernel struct {
	trace      []uint32
	at         map[uint32]int32
	nodes      []lruNode
	head, tail int32
}

func newRefKernel() *refKernel {
	k := &refKernel{
		trace: make([]uint32, refRefs),
		at:    make(map[uint32]int32, refSlots),
		nodes: make([]lruNode, 0, refSlots),
	}
	x, cur := uint64(12345), uint32(0)
	for i := range k.trace {
		x = x*6364136223846793005 + 1442695040888963407
		if (x>>60)&3 == 0 {
			cur = uint32(x>>33) % refPages
		} else {
			cur = (cur + 1) % refPages
		}
		k.trace[i] = cur
	}
	return k
}

// run replays the trace once and returns its wall time in seconds.
func (k *refKernel) run() float64 {
	t0 := time.Now()
	clear(k.at)
	k.nodes = k.nodes[:0]
	k.head, k.tail = -1, -1
	for _, p := range k.trace {
		if i, ok := k.at[p]; ok {
			k.unlink(i)
			k.push(i)
			continue
		}
		var i int32
		if len(k.nodes) < refSlots {
			k.nodes = append(k.nodes, lruNode{page: p})
			i = int32(len(k.nodes) - 1)
		} else {
			i = k.tail
			k.unlink(i)
			delete(k.at, k.nodes[i].page)
			k.nodes[i].page = p
		}
		k.at[p] = i
		k.push(i)
	}
	return time.Since(t0).Seconds()
}

func (k *refKernel) unlink(i int32) {
	n := &k.nodes[i]
	if n.prev >= 0 {
		k.nodes[n.prev].next = n.next
	} else {
		k.head = n.next
	}
	if n.next >= 0 {
		k.nodes[n.next].prev = n.prev
	} else {
		k.tail = n.prev
	}
}

func (k *refKernel) push(i int32) {
	k.nodes[i].prev, k.nodes[i].next = -1, k.head
	if k.head >= 0 {
		k.nodes[k.head].prev = i
	}
	k.head = i
	if k.tail < 0 {
		k.tail = i
	}
}
