// Package directmap implements §2's generalisation of the HBM results from
// fully-associative to direct-mapped caches (Lemma 1, Theorem 4,
// Corollary 1): a Frigo-style transformation that simulates a size-k
// fully-associative HBM with LRU or FIFO replacement on a direct-mapped
// cache of size Θ(k), using a 2-universal hash table (with chaining) for
// associativity and a doubly-linked list for the replacement order.
//
// It provides the 2-universal hash family, which hbm.DirectMapped (a plain
// direct-mapped cache, what HBM hardware actually is) also draws from,
// and Transform: the transformed program of Lemma 1, whose *own*
// metadata and data accesses are pushed through a direct-mapped cache of
// size Θ(k) so its constant-factor overhead can be measured. The
// directmap experiment uses its measurement hooks to verify the lemma's
// O(1) expected overhead empirically, against the fully-associative
// baseline the theory speaks about (hbm.Assoc).
package directmap

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// mersenne61 is the prime 2^61 - 1 used by the 2-universal hash family
// h(x) = ((a*x + b) mod p) mod m (Motwani & Raghavan; cited by the proof
// of Lemma 1 for O(1) expected chain length).
const mersenne61 = (1 << 61) - 1

// UniversalHash is one member of a 2-universal family mapping uint64 keys
// to buckets [0, m).
type UniversalHash struct {
	a, b uint64
	m    uint64
}

// NewUniversalHash draws a hash function with m buckets from the family.
func NewUniversalHash(m uint64, rng *rand.Rand) (UniversalHash, error) {
	if m == 0 {
		return UniversalHash{}, fmt.Errorf("directmap: bucket count must be positive")
	}
	a := 1 + uint64(rng.Int63n(mersenne61-1)) // a in [1, p)
	b := uint64(rng.Int63n(mersenne61))       // b in [0, p)
	return UniversalHash{a: a, b: b, m: m}, nil
}

// Hash returns the bucket of x.
func (h UniversalHash) Hash(x uint64) uint64 {
	return mulAddMod61(h.a, x, h.b) % h.m
}

// Buckets returns m.
func (h UniversalHash) Buckets() uint64 { return h.m }

// mulAddMod61 computes (a*x + b) mod (2^61 - 1) using 128-bit
// intermediate arithmetic and Mersenne-prime folding.
func mulAddMod61(a, x, b uint64) uint64 {
	// Reduce the key below the prime first so the folds cannot overflow.
	x = (x & mersenne61) + (x >> 61)
	if x >= mersenne61 {
		x -= mersenne61
	}
	hi, lo := bits.Mul64(a, x)
	// Fold the 128-bit product modulo 2^61-1: value = hi*2^64 + lo, and
	// 2^64 ≡ 2^3 (mod 2^61-1), so value ≡ hi*8 + lo. Split lo itself.
	r := (lo & mersenne61) + (lo >> 61) + hi*8
	r = (r & mersenne61) + (r >> 61)
	r += b
	r = (r & mersenne61) + (r >> 61)
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}
