package hbmsim_test

import (
	"fmt"

	"hbmsim"
)

// ExampleRun simulates a tiny hand-written workload: two cores, one far
// channel, FIFO arbitration. Core 1's single cold miss queues behind core
// 0's, so it waits an extra tick.
func ExampleRun() {
	wl := hbmsim.NewWorkload("tiny", []hbmsim.Trace{
		{0, 0}, // core 0: one cold miss, then a hit
		{1},    // core 1: one cold miss, queued behind core 0's
	})
	res, err := hbmsim.Run(hbmsim.Config{HBMSlots: 4, Channels: 1}, wl)
	if err != nil {
		panic(err)
	}
	fmt.Println("makespan:", res.Makespan)
	fmt.Println("hits:", res.Hits, "misses:", res.Misses)
	fmt.Println("core 1 worst wait:", res.PerCore[1].ResponseMax)
	// Output:
	// makespan: 3
	// hits: 1 misses: 2
	// core 1 worst wait: 3
}

// ExampleDynamicPriorityConfig shows the paper's recommended policy: the
// returned configuration runs Priority arbitration and randomly
// re-permutes the thread priorities every 10k ticks.
func ExampleDynamicPriorityConfig() {
	cfg := hbmsim.DynamicPriorityConfig(1000, 2)
	fmt.Println(cfg.Arbiter, cfg.Permuter, cfg.RemapPeriod)
	// Output:
	// priority dynamic 10000
}

// ExampleReuseCurveOf computes an LRU miss-ratio curve: a 3-page loop
// thrashes below k=3 and only cold-misses from k=3 up.
func ExampleReuseCurveOf() {
	c := hbmsim.ReuseCurveOf(hbmsim.Trace{1, 2, 3, 1, 2, 3, 1, 2, 3})
	fmt.Println("misses at k=2:", c.Misses(2))
	fmt.Println("misses at k=3:", c.Misses(3))
	// Output:
	// misses at k=2: 9
	// misses at k=3: 3
}

// ExampleLowerBounds estimates how far a policy sits from optimal.
func ExampleLowerBounds() {
	wl := hbmsim.NewWorkload("w", []hbmsim.Trace{{0, 1, 2, 3}})
	res, err := hbmsim.Run(hbmsim.Config{HBMSlots: 8, Channels: 1}, wl)
	if err != nil {
		panic(err)
	}
	b := hbmsim.LowerBounds(wl, 8, 1)
	fmt.Printf("makespan %d, lower bound %d, ratio %.1f\n",
		res.Makespan, b.Makespan, hbmsim.CompetitiveRatio(res.Makespan, b))
	// Output:
	// makespan 8, lower bound 5, ratio 1.6
}

// fetchCounter demonstrates a custom Observer: embedding NopObserver
// keeps it compiling as the event surface grows, so it only implements
// the one callback it cares about.
type fetchCounter struct {
	hbmsim.NopObserver
	n int
}

func (f *fetchCounter) OnFetch(core hbmsim.CoreID, page hbmsim.PageID, tick hbmsim.Tick) { f.n++ }

// ExampleSim_SetObserver attaches observers to a stepwise simulation.
// Several consumers can watch one run through NewMultiObserver; observers
// never change the simulation's results.
func ExampleSim_SetObserver() {
	wl := hbmsim.NewWorkload("tiny", []hbmsim.Trace{
		{0, 0}, // core 0: one cold miss, then a hit
		{1},    // core 1: one cold miss, queued behind core 0's
	})
	sim, err := hbmsim.NewSim(hbmsim.Config{HBMSlots: 4, Channels: 1}, wl)
	if err != nil {
		panic(err)
	}
	fetches := &fetchCounter{}
	heat := hbmsim.NewHeatmap()
	sim.SetObserver(hbmsim.NewMultiObserver(fetches, heat))
	for sim.Step() {
	}
	res := sim.Result()
	fmt.Println("fetch events:", fetches.n)
	fmt.Println("result fetches:", res.Fetches)
	fmt.Println("hottest page:", heat.TopN(1)[0].Page)
	// Output:
	// fetch events: 2
	// result fetches: 2
	// hottest page: 0
}

// ExampleNewTimeline collects windowed time series from a run: when each
// core was served, how full the DRAM queue was, and how fair the window
// was (Jain's index over per-core serve counts).
func ExampleNewTimeline() {
	wl := hbmsim.NewWorkload("loop", []hbmsim.Trace{
		{0, 1, 0, 1, 0, 1},
		{5, 6, 5, 6, 5, 6},
	})
	tl := hbmsim.NewTimeline(4, wl.Cores(), 1)
	sim, err := hbmsim.NewSim(hbmsim.Config{HBMSlots: 8, Channels: 1}, wl)
	if err != nil {
		panic(err)
	}
	sim.SetObserver(tl)
	for sim.Step() {
	}
	for i, w := range tl.Windows() {
		fmt.Printf("window %d: serves=%d fairness=%.2f\n", i, w.Serves, w.JainFairness())
	}
	// Output:
	// window 0: serves=3 fairness=0.90
	// window 1: serves=8 fairness=1.00
	// window 2: serves=1 fairness=0.50
}

// ExampleAdversarialWorkload reproduces the Figure 3 effect in miniature:
// FIFO never hits on the cyclic trace, Priority does.
func ExampleAdversarialWorkload() {
	cfg := hbmsim.AdversarialConfig{Pages: 32, Reps: 8}
	wl, err := hbmsim.AdversarialWorkload(16, cfg)
	if err != nil {
		panic(err)
	}
	k := hbmsim.AdversarialHBMSlots(16, cfg) // a quarter of the unique pages
	fifo, err := hbmsim.Run(hbmsim.Config{HBMSlots: k, Channels: 1, Arbiter: hbmsim.ArbiterFIFO}, wl)
	if err != nil {
		panic(err)
	}
	prio, err := hbmsim.Run(hbmsim.Config{HBMSlots: k, Channels: 1, Arbiter: hbmsim.ArbiterPriority}, wl)
	if err != nil {
		panic(err)
	}
	fmt.Println("FIFO hits:", fifo.Hits)
	fmt.Println("Priority hits > 0:", prio.Hits > 0)
	fmt.Println("FIFO slower:", fifo.Makespan > prio.Makespan)
	// Output:
	// FIFO hits: 0
	// Priority hits > 0: true
	// FIFO slower: true
}
