package directmap

import (
	"fmt"
	"math/rand"

	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// Transform is the transformed program of Lemma 1: it simulates a size-k
// fully-associative HBM with LRU or FIFO replacement using only structures
// that live at fixed DRAM block addresses — a k-bucket 2-universal hash
// table with chaining (associativity), a doubly-linked list (replacement
// order), and k data blocks (the Cache-DRAM bijection targets). Every
// metadata and data block access the transformation performs is pushed
// through a direct-mapped cache of size Θ(k), so the lemma's claimed
// constant-factor overhead can be measured:
//
//	(1) each hit in the original causes O(1) accesses and ~no misses in
//	    the transformed program (in expectation), and
//	(2) each miss in the original causes O(1) misses.
type Transform struct {
	k     int
	isLRU bool
	hash  UniversalHash
	// dm is the direct-mapped cache of factor*k blocks the transformed
	// program runs on: block a may live only in slot dmHash(a), and a
	// miss replaces the slot's block (noBlock while empty).
	dm     []model.PageID
	dmHash UniversalHash
	bucket []int32
	nodes  []xnode
	free   []int32
	// list order: front = eviction victim, back = most recently placed.
	head, tail int32
	resident   int

	stats TransformStats
}

type xnode struct {
	key          model.PageID
	prev, next   int32 // replacement-order list
	hprev, hnext int32 // hash-chain links
	bucketIdx    int32
}

// TransformStats measures the transformation's overhead.
type TransformStats struct {
	// Ops is the number of program accesses simulated.
	Ops uint64
	// Hits and Misses count w.r.t. the simulated fully-associative HBM.
	Hits   uint64
	Misses uint64
	// InducedAccesses counts every metadata/data block access performed.
	InducedAccesses uint64
	// InducedMisses counts how many of those missed the direct-mapped
	// cache. Lemma 1 predicts O(Misses) in expectation.
	InducedMisses uint64
	// MandatoryDRAM counts accesses to the user-supplied DRAM addresses
	// (one read per miss, one write-back per eviction): traffic any
	// implementation must pay.
	MandatoryDRAM uint64
	// ChainSteps sums the hash-chain lengths walked; ChainSteps/Ops is
	// the expected O(1) chain length. MaxChain is the longest walk seen.
	ChainSteps uint64
	MaxChain   int
}

// AccessesPerOp returns the average induced accesses per program access.
func (s TransformStats) AccessesPerOp() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.InducedAccesses) / float64(s.Ops)
}

// MissesPerMiss returns induced misses per original miss (Lemma 1's
// headline constant), or 0 when there were no misses.
func (s TransformStats) MissesPerMiss() float64 {
	if s.Misses == 0 {
		return 0
	}
	return float64(s.InducedMisses) / float64(s.Misses)
}

// AvgChain returns the mean hash-chain walk length.
func (s TransformStats) AvgChain() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.ChainSteps) / float64(s.Ops)
}

const nilIdx int32 = -1

// noBlock marks an empty slot of the transform's direct-mapped cache;
// block addresses stay below 3k, which NewTransform keeps at most
// noBlock.
const noBlock = ^model.PageID(0)

// NewTransform builds the transformed program for a simulated
// fully-associative HBM of k pages under the given replacement kind (LRU
// or FIFO — the two policies Lemma 1 covers). factor scales the
// direct-mapped cache: its size is factor*k blocks (the lemma's Θ(k)).
func NewTransform(k int, kind replacement.Kind, factor int, seed int64) (*Transform, error) {
	if k <= 0 {
		return nil, fmt.Errorf("directmap: capacity must be positive, got %d", k)
	}
	if factor < 1 {
		return nil, fmt.Errorf("directmap: cache factor must be >= 1, got %d", factor)
	}
	if 3*uint64(k) > model.MaxPageID {
		return nil, fmt.Errorf("directmap: capacity %d needs %d block addresses, past the largest page ID %d", k, 3*uint64(k), uint64(model.MaxPageID))
	}
	if kind != replacement.LRU && kind != replacement.FIFO {
		return nil, fmt.Errorf("directmap: transform supports lru and fifo, got %q", kind)
	}
	rng := rand.New(rand.NewSource(seed))
	h, err := NewUniversalHash(uint64(k), rng)
	if err != nil {
		return nil, err
	}
	dmHash, err := NewUniversalHash(uint64(factor*k), rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, err
	}
	t := &Transform{
		k:      k,
		isLRU:  kind == replacement.LRU,
		hash:   h,
		dm:     make([]model.PageID, factor*k),
		dmHash: dmHash,
		bucket: make([]int32, k),
		nodes:  make([]xnode, k),
		free:   make([]int32, 0, k),
		head:   nilIdx,
		tail:   nilIdx,
	}
	for i := range t.dm {
		t.dm[i] = noBlock
	}
	for i := range t.bucket {
		t.bucket[i] = nilIdx
	}
	for i := k - 1; i >= 0; i-- {
		t.free = append(t.free, int32(i))
	}
	return t, nil
}

// Block address layout: buckets [0, k), nodes [k, 2k), data [2k, 3k).
func (t *Transform) bucketAddr(b uint64) model.PageID { return model.PageID(b) }
func (t *Transform) nodeAddr(n int32) model.PageID    { return model.PageID(uint64(t.k) + uint64(n)) }
func (t *Transform) dataAddr(n int32) model.PageID {
	return model.PageID(uint64(2*t.k) + uint64(n))
}

// touch pushes one metadata/data block access through the direct-mapped
// cache and accounts for it.
func (t *Transform) touch(addr model.PageID) {
	t.stats.InducedAccesses++
	if s := t.dmHash.Hash(uint64(addr)); t.dm[s] != addr {
		t.stats.InducedMisses++
		t.dm[s] = addr
	}
}

// Stats returns the accumulated measurements.
func (t *Transform) Stats() TransformStats { return t.stats }

// Access simulates one program access to the user-supplied DRAM page and
// reports whether the simulated fully-associative HBM hit.
func (t *Transform) Access(page model.PageID) bool {
	t.stats.Ops++
	b := t.hash.Hash(uint64(page))
	t.touch(t.bucketAddr(b))

	// Walk the chain.
	steps := 0
	n := t.bucket[b]
	for n != nilIdx {
		steps++
		t.touch(t.nodeAddr(n))
		if t.nodes[n].key == page {
			break
		}
		n = t.nodes[n].hnext
	}
	t.stats.ChainSteps += uint64(steps)
	if steps > t.stats.MaxChain {
		t.stats.MaxChain = steps
	}

	if n != nilIdx {
		// Original-program HBM hit.
		t.stats.Hits++
		if t.isLRU && t.tail != n {
			// Move to the MRU end: unlink (touch neighbours) and relink.
			t.unlinkList(n, true)
			t.pushBackList(n, true)
		}
		t.touch(t.dataAddr(n)) // serve the data block
		return true
	}

	// Original-program HBM miss.
	t.stats.Misses++
	var idx int32
	if t.resident == t.k {
		idx = t.evict()
	} else {
		idx = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		t.resident++
	}
	// Copy user DRAM -> Cache DRAM address, bring into HBM.
	t.stats.MandatoryDRAM++ // read of the user-supplied DRAM address
	t.nodes[idx].key = page
	t.nodes[idx].bucketIdx = int32(b)
	// Insert at chain head.
	t.touch(t.bucketAddr(b))
	old := t.bucket[b]
	t.nodes[idx].hprev = nilIdx
	t.nodes[idx].hnext = old
	if old != nilIdx {
		t.touch(t.nodeAddr(old))
		t.nodes[old].hprev = idx
	}
	t.bucket[b] = idx
	// Insert at the back of the replacement list.
	t.pushBackList(idx, true)
	t.touch(t.dataAddr(idx)) // write the fetched data, then serve it
	return false
}

// evict removes the front-of-list victim from both structures, writes its
// data back to user DRAM, and returns its node for reuse.
func (t *Transform) evict() int32 {
	v := t.head
	t.touch(t.nodeAddr(v))
	t.unlinkList(v, true)
	// Unlink from its hash chain.
	nd := &t.nodes[v]
	if nd.hprev != nilIdx {
		t.touch(t.nodeAddr(nd.hprev))
		t.nodes[nd.hprev].hnext = nd.hnext
	} else {
		t.touch(t.bucketAddr(uint64(nd.bucketIdx)))
		t.bucket[nd.bucketIdx] = nd.hnext
	}
	if nd.hnext != nilIdx {
		t.touch(t.nodeAddr(nd.hnext))
		t.nodes[nd.hnext].hprev = nd.hprev
	}
	// Write the data block back to the user-supplied DRAM address.
	t.touch(t.dataAddr(v))
	t.stats.MandatoryDRAM++
	return v
}

// unlinkList detaches node n from the replacement-order list; when
// touching is set the neighbour updates count as block accesses.
func (t *Transform) unlinkList(n int32, touching bool) {
	nd := &t.nodes[n]
	if nd.prev != nilIdx {
		if touching {
			t.touch(t.nodeAddr(nd.prev))
		}
		t.nodes[nd.prev].next = nd.next
	} else {
		t.head = nd.next
	}
	if nd.next != nilIdx {
		if touching {
			t.touch(t.nodeAddr(nd.next))
		}
		t.nodes[nd.next].prev = nd.prev
	} else {
		t.tail = nd.prev
	}
}

// pushBackList appends node n at the MRU end of the replacement list.
func (t *Transform) pushBackList(n int32, touching bool) {
	nd := &t.nodes[n]
	nd.prev = t.tail
	nd.next = nilIdx
	if t.tail != nilIdx {
		if touching {
			t.touch(t.nodeAddr(t.tail))
		}
		t.nodes[t.tail].next = n
	} else {
		t.head = n
	}
	t.tail = n
	if touching {
		t.touch(t.nodeAddr(n))
	}
}
