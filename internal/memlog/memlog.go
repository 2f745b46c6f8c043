// Package memlog provides instrumented arrays that log every dereference,
// the Go analogue of the paper's logging-iterator technique ("we created a
// logging iterator class that logs every dereference ... we replaced the
// arrays used in this code with our own array-like objects that log all
// accesses").
//
// A Recorder owns a virtual byte-address space; instrumented slices are
// allocated out of it with a bump allocator, and every Get/Set appends the
// accessed byte address to the Recorder. The address stream is then mapped
// to a page-reference trace with trace.PageMapper, exactly the paper's
// preprocessing step.
package memlog

import (
	"fmt"

	"hbmsim/internal/trace"
)

// chunkLen is the number of accesses a log chunk holds (64 KiB of
// addresses). The log grows a chunk at a time, so recording never copies
// what it has already logged.
const chunkLen = 1 << 13

// Recorder owns a virtual address space and the access log.
type Recorder struct {
	// full holds the filled log chunks in logging order; cur is the
	// chunk being filled.
	full [][]uint64
	cur  []uint64
	next uint64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// reserve carves bytes out of the virtual address space, aligned to the
// element size so no element straddles a page boundary unnecessarily.
func (r *Recorder) reserve(bytes, align uint64) uint64 {
	if align > 1 && r.next%align != 0 {
		r.next += align - r.next%align
	}
	base := r.next
	r.next += bytes
	return base
}

// record appends one access.
func (r *Recorder) record(addr uint64) {
	if len(r.cur) == cap(r.cur) {
		r.spill()
	}
	r.cur = append(r.cur, addr)
}

// spill retires the current chunk, once it is full, and starts a new one.
func (r *Recorder) spill() {
	if r.cur != nil {
		r.full = append(r.full, r.cur)
	}
	r.cur = make([]uint64, 0, chunkLen)
}

// Len returns the number of recorded accesses.
func (r *Recorder) Len() int { return len(r.full)*chunkLen + len(r.cur) }

// Reset discards the recorded accesses but keeps allocations in place, so
// a warm-up run can be discarded before the measured run.
func (r *Recorder) Reset() {
	r.full = nil
	r.cur = r.cur[:0]
}

// Trace maps the recorded byte addresses to a page-reference trace with
// the given page size in bytes.
func (r *Recorder) Trace(pageBytes int) (trace.Trace, error) {
	m, err := trace.NewPageMapper(pageBytes)
	if err != nil {
		return nil, err
	}
	out := make(trace.Trace, r.Len())
	for i, c := range r.full {
		m.Pages(out[i*chunkLen:], c)
	}
	m.Pages(out[len(r.full)*chunkLen:], r.cur)
	return out, nil
}

// Slice is an instrumented array of T. Every element access is logged to
// the owning Recorder with its virtual byte address.
type Slice[T any] struct {
	rec      *Recorder
	base     uint64
	elemSize uint64
	data     []T
}

// NewSlice allocates an instrumented slice of n elements whose elements
// occupy elemBytes each in the virtual address space. elemBytes should be
// the natural size of T (8 for int64/float64, 4 for int32, ...); it
// determines how many elements share a page.
func NewSlice[T any](rec *Recorder, n int, elemBytes int) *Slice[T] {
	if n < 0 || elemBytes <= 0 {
		panic(fmt.Sprintf("memlog: invalid slice dims n=%d elemBytes=%d", n, elemBytes))
	}
	es := uint64(elemBytes)
	return &Slice[T]{
		rec:      rec,
		base:     rec.reserve(uint64(n)*es, es),
		elemSize: es,
		data:     make([]T, n),
	}
}

// FromSlice allocates an instrumented copy of xs.
func FromSlice[T any](rec *Recorder, xs []T, elemBytes int) *Slice[T] {
	s := NewSlice[T](rec, len(xs), elemBytes)
	copy(s.data, xs)
	return s
}

// Len returns the element count.
func (s *Slice[T]) Len() int { return len(s.data) }

// addr returns the virtual byte address of element i.
func (s *Slice[T]) addr(i int) uint64 { return s.base + uint64(i)*s.elemSize }

// Get reads element i, logging the access.
func (s *Slice[T]) Get(i int) T {
	s.rec.record(s.addr(i))
	return s.data[i]
}

// Set writes element i, logging the access.
func (s *Slice[T]) Set(i int, v T) {
	s.rec.record(s.addr(i))
	s.data[i] = v
}

// Swap exchanges elements i and j (two reads and two writes, logged as
// four accesses, matching what instrumented std::swap would emit).
func (s *Slice[T]) Swap(i, j int) {
	a, b := s.Get(i), s.Get(j)
	s.Set(i, b)
	s.Set(j, a)
}

// Peek reads element i without logging; for assertions in tests and for
// verification passes that the paper's instrumentation would not log.
func (s *Slice[T]) Peek(i int) T { return s.data[i] }

// Raw returns the backing store without logging; for result verification.
func (s *Slice[T]) Raw() []T { return s.data }
