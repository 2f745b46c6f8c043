// Package knl models the memory hierarchy of Intel's Xeon Phi Knights
// Landing — the hardware the paper validates the HBM+DRAM model against in
// §5. We have no KNL, so this package is the substitution (see DESIGN.md
// §2): a parameterised analytic machine whose per-level latencies,
// page-walk overheads, and bandwidths are calibrated so that the paper's
// two microbenchmarks (pointer chasing and GLUPS), run against the model,
// reproduce the shapes of Table 2 and Figure 6 and exhibit the four
// Properties of §5:
//
//	P1: flat HBM and flat DRAM have similar access latency (~24 ns apart);
//	P2: HBM has ~4.3-4.8x the bandwidth of DRAM;
//	P3: a cache-mode HBM miss costs about twice an HBM hit;
//	P4: cache-mode bandwidth collapses (but stays above DRAM) once the
//	    working set exceeds HBM.
package knl

import "fmt"

// Mode selects how the machine's memory is addressed, mirroring KNL's boot
// modes.
type Mode string

// Memory modes. FlatDRAM binds allocations to DDR4, FlatHBM binds them to
// MCDRAM (possible only while they fit), and Cache uses MCDRAM as a
// direct-mapped last-level cache in front of DDR4.
const (
	FlatDRAM Mode = "flat-dram"
	FlatHBM  Mode = "flat-hbm"
	Cache    Mode = "cache"
)

// Machine holds the calibrated hardware parameters.
type Machine struct {
	// Threads is the hardware thread count (KNL: 68 cores x 4 = 272).
	Threads int

	// Capacities in bytes of each hierarchy level.
	L1Bytes       uint64
	L2Bytes       uint64
	SharedL2Bytes uint64 // aggregate of the other tiles' L2, via the mesh
	HBMBytes      uint64

	// Latencies in nanoseconds to serve a load from each level.
	L1NS       float64
	L2NS       float64
	SharedL2NS float64 // includes one mesh traversal
	DRAMBaseNS float64 // DDR4 latency for small working sets
	HBMExtraNS float64 // flat HBM is this much slower than flat DRAM (P1)

	// Page-walk overhead: each TLB tier covers CoverBytes; accesses beyond
	// the covered fraction pay PenaltyNS. This reproduces the slow climb of
	// latency with array size in Table 2a.
	TLB []TLBTier

	// Cache-mode overheads.
	CacheTagNS      float64 // constant tag-check cost of cache mode
	CacheConflictNS float64 // direct-mapped conflict overhead, ramping in
	CacheConflictAt uint64  // array size where conflicts start to bite
	CacheMissNS     float64 // extra cost of missing HBM and going to DRAM

	// Bandwidths in MiB/s with all threads driving memory.
	DRAMBandwidth float64
	HBMBandwidth  float64
	FarBandwidth  float64 // HBM<->DRAM refill bandwidth in cache mode
}

// Default returns the machine calibrated against the paper's measurements
// (Table 2; 272 threads, 16 GiB MCDRAM, 6 DDR channels, 8 HBM connections).
func Default() Machine {
	const (
		kib = uint64(1) << 10
		mib = uint64(1) << 20
		gib = uint64(1) << 30
	)
	return Machine{
		Threads: 272,
		L1Bytes: 32 * kib,
		L2Bytes: 1 * mib,
		// Effective cross-tile L2 reach: KNL's distributed tag directory
		// gives only a small slice of remote L2 to any one thread's
		// private data, so the shared tier is a few MiB, not 34.
		SharedL2Bytes: 4 * mib,
		HBMBytes:      16 * gib,

		L1NS:       2,
		L2NS:       12,
		SharedL2NS: 150, // cross-mesh L2 access, the ~200ns baseline tier
		DRAMBaseNS: 180,
		HBMExtraNS: 24,

		TLB: []TLBTier{
			{CoverBytes: 32 * mib, PenaltyNS: 45},
			{CoverBytes: 256 * mib, PenaltyNS: 95},
			{CoverBytes: 16 * gib, PenaltyNS: 55},
		},

		CacheTagNS:      5,
		CacheConflictNS: 30,
		CacheConflictAt: 256 * mib,
		CacheMissNS:     90,

		DRAMBandwidth: 67_500,
		HBMBandwidth:  315_000,
		FarBandwidth:  110_000,
	}
}

// TLBTier is one level of address-translation coverage.
type TLBTier struct {
	// CoverBytes is the working-set size this tier covers without penalty.
	CoverBytes uint64
	// PenaltyNS is paid by the fraction of accesses falling outside the
	// covered bytes.
	PenaltyNS float64
}

// Validate reports a parameterisation error, if any.
func (m Machine) Validate() error {
	if m.Threads <= 0 {
		return fmt.Errorf("knl: thread count must be positive, got %d", m.Threads)
	}
	if m.L1Bytes == 0 || m.L2Bytes < m.L1Bytes || m.SharedL2Bytes < m.L2Bytes || m.HBMBytes < m.SharedL2Bytes {
		return fmt.Errorf("knl: capacities must be increasing (L1 %d, L2 %d, shared L2 %d, HBM %d)",
			m.L1Bytes, m.L2Bytes, m.SharedL2Bytes, m.HBMBytes)
	}
	if m.DRAMBandwidth <= 0 || m.HBMBandwidth <= 0 || m.FarBandwidth <= 0 {
		return fmt.Errorf("knl: bandwidths must be positive")
	}
	return nil
}

// sat returns the fraction of a working set of size s that lies beyond
// cover bytes: max(0, 1 - cover/s).
func sat(s, cover uint64) float64 {
	if s <= cover || s == 0 {
		return 0
	}
	return 1 - float64(cover)/float64(s)
}
