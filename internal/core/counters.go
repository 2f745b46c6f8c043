package core

import (
	"math/bits"

	"hbmsim/internal/model"
)

// Counters is the simulator's ledger: plain integer counts of what the
// run did, each relative to its value at New or Resume. Like the jump
// and cruise counters it describes how the run went, not what it
// computed, so it is in neither Result nor snapshots.
type Counters struct {
	// Executed ticks (stepped and jumped), serves, and serves with
	// response time 1.
	Ticks, Serves, Hits uint64
	// Requests entering the DRAM queue: a page evicted before its serve
	// is queued and counted again, so this is not Result.Misses.
	Queued uint64
	// Far-channel grants, landed transfers, pages evicted from HBM, and
	// priority re-draws.
	Grants, Fetches, Evictions, Remaps uint64
	// Ticks a cruising run jumped (see Sim.Step), and the jumps.
	FFTicks, FFStretches uint64
	// Serves folded by cruising cores rather than stepped one by one.
	Cruised uint64
	// End-of-tick DRAM-queue depth, once per tick; each grant's ticks in
	// the queue since its core requested the page; each serve's response
	// time.
	QueueDepth, GrantWait, Response Dist
}

// Dist is a distribution of non-negative integers: Buckets[0] counts the
// observations of at most 1 and Buckets[i] those in (2^(i-1), 2^i], and
// Sum is their exact sum.
type Dist struct {
	Buckets [64]uint64
	Sum     uint64
}

// counterTicks is the cadence, in ticks, of pushes to counter observers.
const counterTicks = 1024

// bucket returns the Dist bucket of v.
func bucket(v uint64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(v - 1)
}

// counters completes the ledger in s.led, whose grants and buckets the
// step loop fills, from the Sim's own counts less those at s.base.
func (s *Sim) counters() *Counters {
	c, b := &s.led, &s.base
	// Running cruises' serves are not folded yet: count them from the
	// implicit cursors, leaving the Sim as it is.
	cruising := s.cruisedSoFar()
	serves, hits := cruising, cruising
	for i := range s.cores {
		serves += uint64(s.pos[i])
		hits += s.cores[i].resp.hits
	}
	c.Ticks = uint64(s.tick) - b.Ticks
	c.Serves, c.Hits = serves-b.Serves, hits-b.Hits
	c.Queued, c.Fetches = s.seq-b.Queued, s.fetches-b.Fetches
	c.Evictions, c.Remaps = s.evictions-b.Evictions, s.remaps-b.Remaps
	c.FFTicks, c.FFStretches = s.ffTicks, s.ffStretches
	c.Cruised = s.cruised + cruising
	c.QueueDepth.Sum = s.queueSum - b.QueueDepth.Sum
	// Responses of 2 or more are bucketed as they are served; the hits
	// make up the first bucket.
	c.Response.Buckets[0], c.Response.Sum = c.Hits, c.Hits+s.missSum
	return c
}

// pushCounters hands the ledger to the counter observers when the run
// ends and on the first Step at or past each multiple of counterTicks.
func (s *Sim) pushCounters(end bool) {
	if len(s.cobs) == 0 || !end && s.tick < s.nextPush {
		return
	}
	for _, o := range s.cobs {
		o.OnCounters(s.counters())
	}
	s.nextPush = (s.tick/counterTicks + 1) * counterTicks
}

// more reports whether the run goes on, pushing the ledger when due. It
// is kept small enough for the compiler to inline into Step.
func (s *Sim) more() bool {
	more := s.doneN < len(s.cores)
	if s.cobs != nil {
		s.pushCounters(!more)
	}
	return more
}

// noteMiss records a response time of 2 or more in the ledger; the
// hits need nothing (see counters).
func (s *Sim) noteMiss(r model.Tick) {
	s.led.Response.Buckets[bucket(uint64(r))]++
	s.missSum += uint64(r)
}
