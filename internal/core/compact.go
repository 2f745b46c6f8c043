package core

import (
	"hbmsim/internal/model"
	"hbmsim/internal/trace"
)

// compactTraces renumbers the workload's pages into the dense space
// [0, U) in first-appearance order (cores scanned in index order, each
// trace front to back), so stores and replacement policies can index
// flat slices by page instead of hashing sparse 64-bit PageIDs on every
// Contains/Touch/Insert. Because the model's reference sequences are
// mutually disjoint (Property 1), the renaming is a bijection on the
// referenced pages and U — the total unique-page count — is known up
// front; renaming page identities cannot change any identity-based
// policy decision, so the compacted simulation is bit-identical to the
// sparse one (the direct-mapped store additionally hashes the *original*
// ID per page, see hbm.NewDenseDirectMapped).
//
// It returns the per-core dense traces, the reverse table origOf
// (origOf[dense] = original PageID) for the Observer/Result boundary,
// and U. When the workload is already dense in first-appearance order —
// which is exactly what trace.NewWorkload produces — the input traces
// are returned unchanged and origOf is nil: no copy is made and no
// translation is needed.
func compactTraces(traces [][]model.PageID) (dense [][]model.PageID, origOf []model.PageID, universe int) {
	// Identity fast path: under first-appearance numbering, the mapping
	// is the identity iff every new page equals the running unique count.
	// A reference below the count was assigned earlier (IDs 0..count-1
	// name exactly the pages seen so far); one above it breaks identity.
	unique := model.PageID(0)
	identity := true
scan:
	for _, tr := range traces {
		for _, p := range tr {
			if p == unique {
				unique++
			} else if p > unique {
				identity = false
				break scan
			}
		}
	}
	if identity {
		return traces, nil, int(unique)
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
	return dense, origOf, len(origOf)
}
