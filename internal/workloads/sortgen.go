package workloads

import (
	"fmt"
	"math/bits"
	"math/rand"

	"hbmsim/internal/memlog"
	"hbmsim/internal/trace"
)

// SortAlgo names a sorting algorithm whose memory accesses are traced.
type SortAlgo string

// Sorting algorithms. Introsort is what GNU libstdc++'s std::sort runs
// (median-of-3 quicksort with a depth-limited heapsort fallback and a final
// insertion-sort pass), so it is the paper's "GNU sort" dataset. Mergesort
// mirrors std::stable_sort; Quicksort and Heapsort are the classical
// baselines the paper's parameter sweep mentions.
const (
	Introsort SortAlgo = "introsort"
	Mergesort SortAlgo = "mergesort"
	Quicksort SortAlgo = "quicksort"
	Heapsort  SortAlgo = "heapsort"
)

// SortAlgos lists every supported algorithm.
func SortAlgos() []SortAlgo { return []SortAlgo{Introsort, Mergesort, Quicksort, Heapsort} }

// SortConfig parameterises a sort-trace generation.
type SortConfig struct {
	// N is the number of 64-bit integers to sort. The paper uses 500000;
	// scaled-down runs preserve the access structure.
	N int
	// Algo selects the algorithm; defaults to Introsort (GNU sort).
	Algo SortAlgo
	// PageBytes is the page size; defaults to DefaultPageBytes.
	PageBytes int
}

func (c SortConfig) withDefaults() SortConfig {
	if c.Algo == "" {
		c.Algo = Introsort
	}
	if c.PageBytes == 0 {
		c.PageBytes = DefaultPageBytes
	}
	return c
}

const elemBytes = 8 // all instrumented kernels sort/operate on 64-bit words

// SortTrace runs the configured sort on N random integers behind an
// instrumented array and returns the page-reference trace of every
// dereference the sort performed.
func SortTrace(cfg SortConfig, seed int64) (trace.Trace, error) {
	return sortTrace(cfg, seed, nil)
}

// sortTrace is SortTrace logging into chunks taken from free,
// to which it hands them back once the log is mapped to pages.
func sortTrace(cfg SortConfig, seed int64, free *memlog.FreeList) (trace.Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 {
		return nil, fmt.Errorf("workloads: sort size must be positive, got %d", cfg.N)
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]int64, cfg.N)
	for i := range data {
		data[i] = rng.Int63()
	}
	rec := memlog.NewRecorder(free)
	defer rec.Reset()
	s := memlog.FromSlice(rec, data, elemBytes)
	switch cfg.Algo {
	case Introsort:
		introsort(s)
	case Mergesort:
		mergesort(rec, s)
	case Quicksort:
		quicksort(s, 0, s.Len()-1)
	case Heapsort:
		heapsortRange(s, 0, s.Len())
	default:
		return nil, fmt.Errorf("workloads: unknown sort algorithm %q", cfg.Algo)
	}
	for i := 1; i < cfg.N; i++ {
		if s.Peek(i-1) > s.Peek(i) {
			return nil, fmt.Errorf("workloads: %s produced unsorted output at %d", cfg.Algo, i)
		}
	}
	return rec.Trace(cfg.PageBytes)
}

// SortWorkload builds a p-core workload of independent sort traces.
func SortWorkload(cores int, cfg SortConfig, baseSeed int64) (*trace.Workload, error) {
	cfg = cfg.withDefaults()
	name := fmt.Sprintf("%s-n%d", cfg.Algo, cfg.N)
	return generate(name, cores, baseSeed, func(seed int64, free *memlog.FreeList) (trace.Trace, error) {
		return sortTrace(cfg, seed, free)
	})
}

// sortThreshold matches libstdc++'s _S_threshold: ranges at most this long
// are left for the final insertion-sort pass.
const sortThreshold = 16

// introsort is std::sort: a quicksort loop with a 2*log2(n) depth limit
// falling back to heapsort, followed by one insertion-sort finishing pass.
func introsort(s *memlog.Slice[int64]) {
	n := s.Len()
	if n <= 1 {
		return
	}
	introsortLoop(s, 0, n, 2*log2floor(n))
	insertionSort(s, 0, n)
}

func log2floor(n int) int {
	return bits.Len(uint(n)) - 1
}

// introsortLoop sorts [lo, hi) down to ranges of sortThreshold, spending at
// most depth levels of quicksort before switching to heapsort.
func introsortLoop(s *memlog.Slice[int64], lo, hi, depth int) {
	for hi-lo > sortThreshold {
		if depth == 0 {
			heapsortRange(s, lo, hi)
			return
		}
		depth--
		cut := partitionMedian3(s, lo, hi)
		introsortLoop(s, cut, hi, depth)
		hi = cut
	}
}

// partitionMedian3 partitions [lo, hi) around the median of the first,
// middle and last elements and returns the split point (start of the right
// part). It is libstdc++'s __unguarded_partition_pivot: after the median is
// moved to lo, the remaining two sampled values bracket the pivot inside
// (lo, hi), so both scans always hit a stopper without bounds checks.
func partitionMedian3(s *memlog.Slice[int64], lo, hi int) int {
	mid := lo + (hi-lo)/2
	moveMedianToFirst(s, lo, mid, hi-1)
	pivot := s.Get(lo)
	i, j := lo+1, hi
	for {
		for s.Get(i) < pivot {
			i++
		}
		j--
		for pivot < s.Get(j) {
			j--
		}
		if i >= j {
			return i
		}
		s.Swap(i, j)
		i++
	}
}

// moveMedianToFirst swaps the median of s[a], s[b], s[c] into position a.
func moveMedianToFirst(s *memlog.Slice[int64], a, b, c int) {
	va, vb, vc := s.Get(a), s.Get(b), s.Get(c)
	switch {
	case va < vb:
		switch {
		case vb < vc:
			s.Swap(a, b)
		case va < vc:
			s.Swap(a, c)
		}
	case va < vc:
		// median is a; already in place
	case vb < vc:
		s.Swap(a, c)
	default:
		s.Swap(a, b)
	}
}

// insertionSort sorts [lo, hi) with the classical linear insertion used by
// std::sort's final pass (one read per shifted element).
func insertionSort(s *memlog.Slice[int64], lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		v := s.Get(i)
		j := i
		for j > lo {
			w := s.Get(j - 1)
			if w <= v {
				break
			}
			s.Set(j, w)
			j--
		}
		if j != i {
			s.Set(j, v)
		}
	}
}

// heapsortRange sorts [lo, hi) with bottom-up heapsort.
func heapsortRange(s *memlog.Slice[int64], lo, hi int) {
	n := hi - lo
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(s, lo, i, n)
	}
	for end := n - 1; end > 0; end-- {
		s.Swap(lo, lo+end)
		siftDown(s, lo, 0, end)
	}
}

// siftDown restores the max-heap property for the heap rooted at index
// root within the n-element heap starting at lo.
func siftDown(s *memlog.Slice[int64], lo, root, n int) {
	v := s.Get(lo + root)
	for {
		child := 2*root + 1
		if child >= n {
			break
		}
		cv := s.Get(lo + child)
		if child+1 < n {
			if rv := s.Get(lo + child + 1); rv > cv {
				child++
				cv = rv
			}
		}
		if cv <= v {
			break
		}
		s.Set(lo+root, cv)
		root = child
	}
	s.Set(lo+root, v)
}

// mergesort is a top-down stable mergesort with an instrumented temporary
// buffer, mirroring std::stable_sort with sufficient extra memory.
func mergesort(rec *memlog.Recorder, s *memlog.Slice[int64]) {
	tmp := memlog.NewSlice[int64](rec, s.Len(), elemBytes)
	var sortRange func(lo, hi int)
	sortRange = func(lo, hi int) {
		if hi-lo <= sortThreshold {
			insertionSort(s, lo, hi)
			return
		}
		mid := lo + (hi-lo)/2
		sortRange(lo, mid)
		sortRange(mid, hi)
		merge(s, tmp, lo, mid, hi)
	}
	sortRange(0, s.Len())
}

// merge merges the sorted ranges [lo, mid) and [mid, hi) through tmp.
func merge(s, tmp *memlog.Slice[int64], lo, mid, hi int) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		a, b := s.Get(i), s.Get(j)
		if a <= b {
			tmp.Set(k, a)
			i++
		} else {
			tmp.Set(k, b)
			j++
		}
		k++
	}
	for i < mid {
		tmp.Set(k, s.Get(i))
		i++
		k++
	}
	for j < hi {
		tmp.Set(k, s.Get(j))
		j++
		k++
	}
	for m := lo; m < hi; m++ {
		s.Set(m, tmp.Get(m))
	}
}

// quicksort is a plain Hoare-partition quicksort on [lo, hi] with the
// middle element as pivot (the paper's sweep includes plain quicksort).
func quicksort(s *memlog.Slice[int64], lo, hi int) {
	for lo < hi {
		pivot := s.Get(lo + (hi-lo)/2)
		i, j := lo, hi
		for i <= j {
			for s.Get(i) < pivot {
				i++
			}
			for s.Get(j) > pivot {
				j--
			}
			if i <= j {
				s.Swap(i, j)
				i++
				j--
			}
		}
		// Recurse on the smaller side, loop on the larger: O(log n) stack.
		if j-lo < hi-i {
			quicksort(s, lo, j)
			lo = i
		} else {
			quicksort(s, i, hi)
			hi = j
		}
	}
}
