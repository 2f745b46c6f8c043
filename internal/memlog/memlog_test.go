package memlog

import (
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"hbmsim/internal/model"
)

func TestSliceGetSetLogsAddresses(t *testing.T) {
	rec := NewRecorder(nil)
	s := NewSlice[int64](rec, 4, 8)
	s.Set(0, 10)
	s.Set(3, 30)
	if got := s.Get(3); got != 30 {
		t.Fatalf("Get(3): got %d", got)
	}
	if rec.Len() != 3 {
		t.Fatalf("recorded %d accesses, want 3", rec.Len())
	}
	tr, err := rec.Trace(16) // 2 elements per page
	if err != nil {
		t.Fatal(err)
	}
	want := []model.PageID{0, 1, 1} // elem 0 -> page 0; elem 3 -> page 1
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace: got %v, want %v", tr, want)
		}
	}
}

func TestSwapLogsFourAccesses(t *testing.T) {
	rec := NewRecorder(nil)
	s := FromSlice(rec, []int64{1, 2}, 8)
	s.Swap(0, 1)
	if rec.Len() != 4 {
		t.Fatalf("swap logged %d accesses, want 4", rec.Len())
	}
	if s.Peek(0) != 2 || s.Peek(1) != 1 {
		t.Fatalf("swap wrong: %v", s.Raw())
	}
}

func TestPeekAndRawDoNotLog(t *testing.T) {
	rec := NewRecorder(nil)
	s := FromSlice(rec, []int64{1, 2, 3}, 8)
	_ = s.Peek(1)
	_ = s.Raw()
	if rec.Len() != 0 {
		t.Fatalf("peek/raw logged %d accesses", rec.Len())
	}
}

func TestFromSliceCopies(t *testing.T) {
	rec := NewRecorder(nil)
	src := []int64{1, 2}
	s := FromSlice(rec, src, 8)
	src[0] = 99
	if s.Peek(0) != 1 {
		t.Fatal("FromSlice must copy the input")
	}
	if rec.Len() != 0 {
		t.Fatal("FromSlice must not log")
	}
}

func TestDistinctSlicesDisjointAddresses(t *testing.T) {
	rec := NewRecorder(nil)
	a := NewSlice[int64](rec, 10, 8)
	b := NewSlice[int64](rec, 10, 8)
	a.Get(9)
	b.Get(0)
	tr, err := rec.Trace(8) // one element per page
	if err != nil {
		t.Fatal(err)
	}
	if tr[0] == tr[1] {
		t.Fatalf("slices share addresses: %v", tr)
	}
	if tr[1] != tr[0]+1 {
		t.Fatalf("bump allocation not contiguous: %v", tr)
	}
}

func TestAlignment(t *testing.T) {
	rec := NewRecorder(nil)
	_ = NewSlice[byte](rec, 3, 1)   // ends at byte 3
	b := NewSlice[int64](rec, 1, 8) // must start at byte 8, not 3
	b.Get(0)
	tr, err := rec.Trace(8)
	if err != nil {
		t.Fatal(err)
	}
	if tr[0] != 1 {
		t.Fatalf("8-byte slice not aligned: page %d, want 1", tr[0])
	}
}

func TestReset(t *testing.T) {
	rec := NewRecorder(nil)
	s := NewSlice[int64](rec, 2, 8)
	s.Get(0)
	rec.Reset()
	if rec.Len() != 0 {
		t.Fatal("reset did not clear the log")
	}
	s.Get(1)
	if rec.Len() != 1 {
		t.Fatal("recording after reset broken")
	}
}

// TestTraceRefusesPagesPast32Bits: Trace refuses a recording whose
// address space ends past the largest 32-bit page ID, and maps one that
// ends exactly there. Zero-size elements reserve the address space
// without allocating it.
func TestTraceRefusesPagesPast32Bits(t *testing.T) {
	for _, c := range []struct {
		name      string
		bytes     int // address space, reserved in elements of elemBytes
		elemBytes int
		pageBytes int
		err       string
	}{
		{"1-byte pages, 2^32 bytes", 1 << 32, 1, 1, ""},
		{"1-byte pages, 2^32+1 bytes", 1<<32 + 1, 1, 1, "memlog: a 4294967297-byte address space in 1-byte pages ends at page 4294967296, past the largest page ID 4294967295"},
		{"4 KiB pages, 2^44 bytes", 1 << 44, 8, 4096, ""},
		{"4 KiB pages, 2^44+8 bytes", 1<<44 + 8, 8, 4096, "memlog: a 17592186044424-byte address space in 4096-byte pages ends at page 4294967296, past the largest page ID 4294967295"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := NewRecorder(nil)
			s := NewSlice[struct{}](rec, c.bytes/c.elemBytes, c.elemBytes)
			s.Get(0)
			s.Get(s.Len() - 1)
			tr, err := rec.Trace(c.pageBytes)
			if c.err != "" {
				if err == nil || err.Error() != c.err {
					t.Fatalf("error %v, want %q", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := []model.PageID{0, 1<<32 - 1}; !slices.Equal(tr, want) {
				t.Fatalf("trace %v, want %v", tr, want)
			}
		})
	}
}

func TestTraceBadPageSize(t *testing.T) {
	rec := NewRecorder(nil)
	if _, err := rec.Trace(0); err == nil {
		t.Fatal("page size 0 accepted")
	}
}

func TestNewSlicePanicsOnBadDims(t *testing.T) {
	rec := NewRecorder(nil)
	for _, c := range []struct{ n, eb int }{{-1, 8}, {4, 0}, {4, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSlice(%d, %d) should panic", c.n, c.eb)
				}
			}()
			NewSlice[int64](rec, c.n, c.eb)
		}()
	}
}

func TestGenericTypes(t *testing.T) {
	rec := NewRecorder(nil)
	f := NewSlice[float64](rec, 2, 8)
	f.Set(0, 3.5)
	if f.Get(0) != 3.5 {
		t.Fatal("float64 slice broken")
	}
	s := NewSlice[string](rec, 1, 16)
	s.Set(0, "hi")
	if s.Get(0) != "hi" {
		t.Fatal("string slice broken")
	}
}

// TestChunkBoundaries logs across several chunk boundaries and checks
// Len, Reset and Trace against an unchunked reference log, once with
// fresh chunks and once starting in chunks another recording filled and
// handed back to a shared free list, which Reset then hands this log's
// chunks back to as well.
func TestChunkBoundaries(t *testing.T) {
	// The other recording logs addresses past 8 MiB, which the reference
	// log never holds, into five chunks.
	var used FreeList
	other := NewRecorder(&used)
	NewSlice[byte](other, 1, 8<<20)
	o := NewSlice[int64](other, 10, 8)
	for i := 0; i < 5*chunkLen; i++ {
		o.Get(i % 10)
	}
	other.Reset()
	if len(used.logs) != 1 || len(used.logs[0]) != 5 {
		t.Fatalf("free list holds %d logs after Reset, want one of 5 chunks", len(used.logs))
	}

	for _, tc := range []struct {
		name string
		free *FreeList
	}{{"fresh", nil}, {"reused", &used}} {
		t.Run(tc.name, func(t *testing.T) {
			rec := NewRecorder(tc.free)
			s := NewSlice[int64](rec, 1000, 8)
			var ref []uint64
			log := func(n int) {
				for i := 0; i < n; i++ {
					j := (i * 7919) % s.Len()
					s.Get(j)
					ref = append(ref, s.addr(j))
					if rec.Len() != len(ref) {
						t.Fatalf("Len %d after %d accesses", rec.Len(), len(ref))
					}
				}
			}
			check := func() {
				t.Helper()
				for _, page := range []int{1, 8, 24, 4096} {
					tr, err := rec.Trace(page)
					if err != nil {
						t.Fatal(err)
					}
					if len(tr) != len(ref) {
						t.Fatalf("page %d: trace has %d refs, want %d", page, len(tr), len(ref))
					}
					for i, a := range ref {
						if want := model.PageID(a / uint64(page)); tr[i] != want {
							t.Fatalf("page %d: ref %d is page %d, want %d", page, i, tr[i], want)
						}
					}
				}
			}

			log(3*chunkLen + 17)
			check()
			if tc.free != nil && len(rec.chunks) != 5 {
				t.Fatalf("recorder holds %d chunks after a 4-chunk log, want the 5 it took", len(rec.chunks))
			}

			// Reset mid-chunk, then refill past a boundary.
			rec.Reset()
			if tc.free != nil && (len(tc.free.logs) != 1 || len(tc.free.logs[0]) != 5) {
				t.Fatalf("free list holds %d logs after Reset, want one of 5 chunks", len(tc.free.logs))
			}
			ref = ref[:0]
			if rec.Len() != 0 {
				t.Fatalf("Len %d after Reset", rec.Len())
			}
			check()
			log(chunkLen + 5)
			check()

			// Reset with the current chunk exactly full.
			rec.Reset()
			ref = ref[:0]
			log(chunkLen)
			check()
			rec.Reset()
			ref = ref[:0]
			log(2 * chunkLen)
			check()
		})
	}
}

// TestRecordAllocatesPerChunk pins the log's growth: logging n accesses
// allocates once per chunk (plus the chunk list's own growth), and the
// bytes allocated stay within one chunk of the log's size, so nothing is
// copied as the log grows.
func TestRecordAllocatesPerChunk(t *testing.T) {
	const n = 40 * chunkLen
	var rec *Recorder
	record := func() {
		rec = NewRecorder(nil)
		s := NewSlice[int64](rec, 64, 8)
		for i := 0; i < n; i++ {
			s.Get(i & 63)
		}
	}
	chunks := n / chunkLen
	if allocs, max := testing.AllocsPerRun(5, record), float64(chunks+bits.Len(uint(chunks))+4); allocs > max {
		t.Fatalf("logging %d accesses made %v allocations, want at most %v", n, allocs, max)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	record()
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(8*(n+chunkLen)+4096); got > max {
		t.Fatalf("logging %d accesses allocated %d bytes, want at most %d", n, got, max)
	}
	if rec.Len() != n {
		t.Fatalf("Len %d, want %d", rec.Len(), n)
	}
}
