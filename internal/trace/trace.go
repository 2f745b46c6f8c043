// Package trace represents page-reference traces and workloads: one
// reference sequence per core, with helpers to map addresses to pages,
// enforce the model's disjointness property, and persist traces to disk.
package trace

import (
	"fmt"
	"math/bits"

	"hbmsim/internal/model"
)

// Trace is one core's page-reference sequence.
type Trace []model.PageID

// Workload is a set of per-core traces plus a human-readable name. The
// model (Property 1) requires the page sets of distinct cores to be
// mutually exclusive; NewWorkload enforces that by renumbering.
type Workload struct {
	// Name identifies the workload in reports.
	Name string
	// Traces holds one reference sequence per core.
	Traces []Trace
}

// NewWorkload builds a disjoint workload from per-core traces that may
// share page numbers (e.g. p independent runs of the same program): each
// core's pages are renumbered into a private dense range, preserving the
// reference structure within the core. The ranges are laid end to end
// from 0 in 32-bit page IDs, so NewWorkload panics if the cores' distinct
// pages together pass 2^32, which takes more than 16 GiB of traces.
func NewWorkload(name string, traces []Trace) *Workload {
	out := make([]Trace, len(traces))
	var base model.PageID
	var pages uint64
	for i, tr := range traces {
		out[i] = make(Trace, len(tr))
		n := Renumber(out[i], tr, base)
		if pages += uint64(n); pages > model.MaxPageID+1 {
			panic(fmt.Sprintf("trace: workload %q has more than %d distinct pages, the 32-bit page ID limit", name, uint64(model.MaxPageID)+1))
		}
		base += model.PageID(n)
	}
	return &Workload{Name: name, Traces: out}
}

// Renumber writes src into dst with its pages renumbered in
// first-appearance order — the first distinct page becomes base, the
// next base+1, and so on — and returns the number of distinct pages.
// dst must be at least as long as src; it may be src itself.
func Renumber(dst, src Trace, base model.PageID) int {
	dst = dst[:len(src)]
	ids := newPageTable(len(src))
	n := int32(0)
	for j, p := range src {
		id := ids.get(p)
		if id == 0 {
			n++
			id = n
			ids.set(p, n)
		}
		dst[j] = base + model.PageID(id-1)
	}
	return int(n)
}

// RenumberAll writes each src[i] into dst[i] with the pages of all the
// traces renumbered from 0 in first-appearance order, scanning the
// traces in index order through one table, so a page that two traces
// share keeps one ID. It returns origOf: origOf[id] is the page
// renumbered to id. Each dst[i] must be at least as long as src[i]; it
// may be src[i] itself.
func RenumberAll(dst, src [][]model.PageID) (origOf []model.PageID) {
	refs := 0
	for _, tr := range src {
		refs += len(tr)
	}
	ids := newPageTable(refs)
	for i, tr := range src {
		out := dst[i][:len(tr)]
		for j, p := range tr {
			id := ids.get(p)
			if id == 0 {
				origOf = append(origOf, p)
				id = int32(len(origOf))
				ids.set(p, id)
			}
			out[j] = model.PageID(id - 1)
		}
	}
	return origOf
}

// maxFlatPages caps a pageTable's flat slice at 2^26 entries (256 MiB).
const maxFlatPages = 1 << 26

// pageTable maps page IDs to int32 values, with 0 meaning absent, so
// callers store a value plus one. Values live in a flat slice over
// [0, max page] that grows as larger IDs are set, up to four entries per
// reference the table was sized for plus 1024 (and at most
// maxFlatPages); the first ID past that moves every value to a map, so a
// sparse ID never allocates a giant table.
type pageTable struct {
	flat  []int32
	limit uint64
	m     map[model.PageID]int32
}

// newPageTable returns an empty table for a trace or workload of refs
// references.
func newPageTable(refs int) pageTable {
	return pageTable{limit: min(4*uint64(refs)+1024, maxFlatPages)}
}

func (t *pageTable) get(p model.PageID) int32 {
	if uint64(p) < uint64(len(t.flat)) {
		return t.flat[p]
	}
	return t.m[p] // 0 from the nil map while the table is flat
}

func (t *pageTable) set(p model.PageID, v int32) {
	if t.m == nil {
		if uint64(p) < uint64(len(t.flat)) {
			t.flat[p] = v
			return
		}
		if uint64(p) < t.limit {
			n := max(len(t.flat), 1024)
			for uint64(n) <= uint64(p) {
				n *= 2
			}
			grown := make([]int32, min(uint64(n), t.limit))
			copy(grown, t.flat)
			t.flat = grown
			t.flat[p] = v
			return
		}
		t.m = make(map[model.PageID]int32)
		for q, w := range t.flat {
			if w != 0 {
				t.m[model.PageID(q)] = w
			}
		}
		t.flat = nil
	}
	t.m[p] = v
}

// Raw wraps traces already known to be disjoint without renumbering.
func Raw(name string, traces []Trace) *Workload {
	return &Workload{Name: name, Traces: traces}
}

// Cores returns the number of cores (traces).
func (w *Workload) Cores() int { return len(w.Traces) }

// TotalRefs returns the total number of references across all cores.
func (w *Workload) TotalRefs() uint64 {
	var n uint64
	for _, t := range w.Traces {
		n += uint64(len(t))
	}
	return n
}

// MaxTraceLen returns the length of the longest trace.
func (w *Workload) MaxTraceLen() int {
	max := 0
	for _, t := range w.Traces {
		if len(t) > max {
			max = len(t)
		}
	}
	return max
}

// UniquePages returns the number of distinct pages across the workload.
func (w *Workload) UniquePages() int {
	seen := newPageTable(int(w.TotalRefs()))
	n := 0
	for _, t := range w.Traces {
		for _, p := range t {
			if seen.get(p) == 0 {
				seen.set(p, 1)
				n++
			}
		}
	}
	return n
}

// UniquePagesPerCore returns each core's distinct-page count.
func (w *Workload) UniquePagesPerCore() []int {
	out := make([]int, len(w.Traces))
	// last holds, per page, the last core that referenced it, plus one.
	last := newPageTable(int(w.TotalRefs()))
	for i, t := range w.Traces {
		stamp := int32(i + 1)
		for _, p := range t {
			if last.get(p) != stamp {
				last.set(p, stamp)
				out[i]++
			}
		}
	}
	return out
}

// Validate checks the model's Property 1: the page sets of distinct cores
// must be mutually exclusive.
func (w *Workload) Validate() error {
	// owner holds, per page, the first core that referenced it, plus one.
	owner := newPageTable(int(w.TotalRefs()))
	for i, t := range w.Traces {
		stamp := int32(i + 1)
		for _, p := range t {
			switch prev := owner.get(p); prev {
			case stamp:
			case 0:
				owner.set(p, stamp)
			default:
				return fmt.Errorf("trace: page %d referenced by both core %d and core %d (traces must be disjoint)", p, prev-1, i)
			}
		}
	}
	return nil
}

// Raw returns the underlying [][]model.PageID for the simulator.
func (w *Workload) Raw() [][]model.PageID {
	out := make([][]model.PageID, len(w.Traces))
	for i, t := range w.Traces {
		out[i] = t
	}
	return out
}

// Subset returns a workload restricted to the first p cores. It panics if
// p exceeds the core count.
func (w *Workload) Subset(p int) *Workload {
	if p > len(w.Traces) {
		panic(fmt.Sprintf("trace: subset of %d cores from %d", p, len(w.Traces)))
	}
	return &Workload{Name: w.Name, Traces: w.Traces[:p]}
}

// PageMapper maps raw element indices or byte addresses onto pages. The
// caller bounds the addresses: every page it maps must be at most
// model.MaxPageID (memlog.Recorder.Trace checks its address space once,
// so the per-address loop in Pages stays a shift).
type PageMapper struct {
	// unit is the number of addressable units per page.
	unit uint64
}

// NewPageMapper returns a mapper with the given page size, expressed in
// whatever unit the workload generator addresses (bytes, elements, ...).
// The paper's preprocessing step ("each array dereference ... is mapped to
// its page reference") is exactly this mapping. unitsPerPage must be >= 1.
func NewPageMapper(unitsPerPage int) (PageMapper, error) {
	if unitsPerPage < 1 {
		return PageMapper{}, fmt.Errorf("trace: page size must be >= 1 unit, got %d", unitsPerPage)
	}
	return PageMapper{unit: uint64(unitsPerPage)}, nil
}

// Page returns the page containing address a.
func (m PageMapper) Page(a uint64) model.PageID {
	return model.PageID(a / m.unit)
}

// Pages writes the page of each address in addrs to dst, which must be
// at least as long. A power-of-two page size maps with a shift rather
// than a division.
func (m PageMapper) Pages(dst Trace, addrs []uint64) {
	dst = dst[:len(addrs)]
	if m.unit&(m.unit-1) == 0 {
		s := bits.TrailingZeros64(m.unit)
		for i, a := range addrs {
			dst[i] = model.PageID(a >> s)
		}
		return
	}
	for i, a := range addrs {
		dst[i] = m.Page(a)
	}
}
