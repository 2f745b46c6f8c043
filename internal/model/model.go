// Package model defines the elementary types of the HBM+DRAM model of
// DeLayo et al. (SPAA 2022): pages (32-bit IDs), cores, ticks, and
// outstanding DRAM requests. Every other package in the simulator builds
// on these types.
//
// In the model, p cores are connected to an HBM of k block slots by p
// parallel channels, and the HBM is connected to unbounded DRAM by q << p
// far channels. All block transfers take one tick.
package model

import "fmt"

// PageID identifies a block (page) of memory. The model transfers whole
// blocks, so a PageID is the unit of residency in HBM. Page identifiers are
// global: by Property 1 of the model the sets of pages accessed by distinct
// cores are mutually exclusive, and the trace package enforces that by
// offsetting each core's pages into a disjoint range.
//
// A PageID is 32 bits wide, so every trace stores a reference in 4 bytes:
// simulated workloads are numbered densely from 0, and a workload has no
// more distinct pages than references. Wherever a wider value enters (a
// trace file, an address space, a page count), it is refused against
// MaxPageID, never truncated.
type PageID uint32

// MaxPageID is the largest page ID: a workload holds at most 2^32
// distinct pages.
const MaxPageID = 1<<32 - 1

// CoreID indexes a core (equivalently, a thread: the model runs one thread
// per core). Cores are numbered 0..p-1.
type CoreID int32

// Tick is the simulator's unit of time. One tick moves at most one block on
// each core channel and at most q blocks on the far channels.
type Tick uint64

// Request is an outstanding block request waiting for a far channel.
// At most one Request per core can be outstanding at any time, because a
// core does not request its next block until the previous one is served.
type Request struct {
	// Core is the requesting core.
	Core CoreID
	// Page is the requested block.
	Page PageID
	// Issued is the tick on which the core first requested the page.
	// Response time is measured from this tick.
	Issued Tick
	// Seq is a monotonically increasing arrival number assigned by the
	// simulator; FIFO arbitration serves requests in Seq order, and
	// priority arbitration breaks priority ties by Seq.
	Seq uint64
}

func (r Request) String() string {
	return fmt.Sprintf("req{core=%d page=%d issued=%d seq=%d}", r.Core, r.Page, r.Issued, r.Seq)
}
