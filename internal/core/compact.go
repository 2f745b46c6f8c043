package core

import (
	"fmt"

	"hbmsim/internal/model"
	"hbmsim/internal/trace"
)

// pageRange is one core's pages in the dense space: [lo, hi).
type pageRange struct {
	lo, hi model.PageID
	// ok is cleared by scanRange when the core's trace leaves the range.
	ok bool
}

// compactTraces renumbers the workload's pages into the dense space
// [0, U) in first-appearance order (cores scanned in index order, each
// trace front to back), so stores and replacement policies can index
// flat slices by page instead of hashing sparse PageIDs on every
// Contains/Touch/Insert. The model's reference sequences are mutually
// disjoint (Property 1), so the renaming is a bijection on the
// referenced pages and every core owns one range of dense IDs, the
// ranges laid end to end: ranges[i] holds core i's pages, and U is the
// last range's end. Renaming page identities cannot change any
// identity-based policy decision, so the compacted simulation is
// bit-identical to the sparse one (the direct-mapped store additionally
// hashes the *original* ID per page, see hbm.NewDenseDirectMapped).
//
// It returns the per-core dense traces, the reverse table origOf
// (origOf[dense] = original PageID) for the Observer/Result boundary,
// and the ranges. When the workload is already dense in first-appearance
// order, which is what trace.NewWorkload and the generators produce, one
// parallel pass over the references proves it: each core's trace is
// numbered in first-appearance order within a range of its own, and the
// ranges abut from 0, so they are disjoint too. The input traces are
// then returned unchanged and origOf is nil: no copy is made and no
// translation is needed. Otherwise the traces are renumbered into a copy
// (trace.RenumberAll) and the copy is scanned for its ranges; there a
// core that references a page an earlier core numbered reads below its
// own range, and the workload is refused with an error worded as
// trace.Workload.Validate's, naming the same page and cores.
func compactTraces(traces [][]model.PageID) (dense [][]model.PageID, origOf []model.PageID, ranges []pageRange, err error) {
	ranges = make([]pageRange, len(traces))
	if scanRanges(traces, ranges) == len(traces) {
		return traces, nil, ranges, nil
	}

	// One flat backing array for the whole workload: a single allocation.
	total := 0
	for _, tr := range traces {
		total += len(tr)
	}
	backing := make([]model.PageID, total)
	dense = make([][]model.PageID, len(traces))
	off := 0
	for i, tr := range traces {
		dense[i] = backing[off : off+len(tr) : off+len(tr)]
		off += len(tr)
	}
	origOf = trace.RenumberAll(dense, traces)
	if bad := scanRanges(dense, ranges); bad < len(traces) {
		return nil, nil, nil, shared(dense, origOf, ranges, bad)
	}
	return dense, origOf, ranges, nil
}

// scanRanges fills ranges[i] with core i's range (scanning the cores in
// parallel) and returns the first core whose trace leaves its range or
// whose range does not start where the ranges before it end, or
// len(traces) when the ranges tile [0, U). An empty trace is given the
// empty range where the ranges before it end.
func scanRanges(traces [][]model.PageID, ranges []pageRange) int {
	trace.Parallel(len(traces), func(i int) { ranges[i] = scanRange(traces[i]) })
	end := model.PageID(0)
	for i, r := range ranges {
		if len(traces[i]) == 0 {
			ranges[i] = pageRange{end, end, true}
			continue
		}
		if !r.ok || r.lo != end {
			return i
		}
		end = r.hi
	}
	return len(traces)
}

// scanRange reads tr once and returns the range [lo, hi) its pages are
// numbered in, in first-appearance order from its first page lo: every
// reference either repeats a page of [lo, hi) or is hi, which extends the
// range. ok is false, with the scan stopped, at the first reference that
// is neither.
func scanRange(tr []model.PageID) pageRange {
	if len(tr) == 0 {
		return pageRange{ok: true}
	}
	lo := tr[0]
	n := model.PageID(0) // pages in the range so far
	for _, p := range tr {
		// Unsigned: a page below lo wraps past every range size.
		if d := p - lo; d >= n {
			if d != n {
				return pageRange{lo: lo, hi: lo + n}
			}
			n++
		}
	}
	return pageRange{lo: lo, hi: lo + n, ok: true}
}

// shared returns the error for a renumbered workload whose ranges break
// at core bad: the cores before it tile [0, base), so core bad's first
// reference below base is the workload's first page that an earlier core
// referenced first, the one trace.Workload.Validate reports.
func shared(dense [][]model.PageID, origOf []model.PageID, ranges []pageRange, bad int) error {
	base := model.PageID(0)
	if bad > 0 {
		base = ranges[bad-1].hi
	}
	for _, p := range dense[bad] {
		if p >= base {
			continue
		}
		owner := 0
		for ranges[owner].hi <= p {
			owner++
		}
		return fmt.Errorf("core: page %d referenced by both core %d and core %d (traces must be disjoint)", origOf[p], owner, bad)
	}
	panic("core: renumbered workload breaks its ranges without a shared page")
}
