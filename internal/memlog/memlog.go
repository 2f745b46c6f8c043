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
	"sync"

	"hbmsim/internal/model"
	"hbmsim/internal/trace"
)

// chunkLen is the number of accesses a log chunk holds (64 KiB of
// addresses). The log grows a chunk at a time, so recording never copies
// what it has already logged.
const chunkLen = 1 << 13

// FreeList holds the chunks of logs that recorders have handed back,
// one set per log. A recorder made with one takes the set of the last
// log handed back and logs into those chunks before it allocates new
// ones, so recordings that run one after another reuse one another's
// chunks, and recorders made at the same time take different sets. It
// is safe for concurrent use; the zero value is an empty list.
type FreeList struct {
	mu   sync.Mutex
	logs [][][]uint64
}

// take removes the chunks of the last log handed back and returns them;
// a nil or empty list returns none.
func (f *FreeList) take() [][]uint64 {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.logs)
	if n == 0 {
		return nil
	}
	c := f.logs[n-1]
	f.logs = f.logs[:n-1]
	return c
}

// put hands one log's chunks back to the list; a nil list drops them.
func (f *FreeList) put(chunks [][]uint64) {
	if f == nil || len(chunks) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.logs = append(f.logs, chunks)
}

// Recorder owns a virtual address space and the access log.
type Recorder struct {
	// chunks holds the log's chunks in logging order: the first filled
	// are full, chunks[filled] is being filled through cur, and the rest
	// are spares taken from free. Every chunk has capacity chunkLen, and
	// the headers in chunks keep length 0: a full chunk is c[:chunkLen].
	chunks [][]uint64
	filled int
	cur    []uint64
	next   uint64
	// free takes the log's chunks back on Reset.
	free *FreeList
}

// NewRecorder returns an empty recorder that takes one earlier log's
// chunks from free to log into, and hands every chunk back to it on
// Reset. With a nil free it allocates every chunk and leaves the
// discarded ones to the garbage collector.
func NewRecorder(free *FreeList) *Recorder {
	return &Recorder{chunks: free.take(), free: free}
}

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

// spill retires the current chunk, once it is full, and starts the next:
// a spare if the recorder holds one, else a new chunk. It calls no
// function, which keeps record, and the Slice accessors that call it,
// cheap enough for the compiler to inline into the instrumented kernels.
func (r *Recorder) spill() {
	if r.cur != nil {
		r.filled++
	}
	if r.filled == len(r.chunks) {
		r.chunks = append(r.chunks, make([]uint64, 0, chunkLen))
	}
	r.cur = r.chunks[r.filled][:0]
}

// Len returns the number of recorded accesses.
func (r *Recorder) Len() int { return r.filled*chunkLen + len(r.cur) }

// Reset discards the recorded accesses and hands every chunk the
// recorder holds back to its free list, for the recorders made after it.
// The recorder can log again at once, into new chunks.
func (r *Recorder) Reset() {
	r.free.put(r.chunks)
	r.chunks, r.filled, r.cur = nil, 0, nil
}

// Trace maps the recorded byte addresses to a page-reference trace with
// the given page size in bytes. Every recorded address lies below the
// top of the recorder's address space, so Trace refuses, once per
// recording, an address space whose last page does not fit a 32-bit
// page ID.
func (r *Recorder) Trace(pageBytes int) (trace.Trace, error) {
	m, err := trace.NewPageMapper(pageBytes)
	if err != nil {
		return nil, err
	}
	if r.next > 0 {
		if last := (r.next - 1) / uint64(pageBytes); last > model.MaxPageID {
			return nil, fmt.Errorf("memlog: a %d-byte address space in %d-byte pages ends at page %d, past the largest page ID %d", r.next, pageBytes, last, uint64(model.MaxPageID))
		}
	}
	out := make(trace.Trace, r.Len())
	for i, c := range r.chunks[:r.filled] {
		m.Pages(out[i*chunkLen:], c[:chunkLen])
	}
	m.Pages(out[r.filled*chunkLen:], r.cur)
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
