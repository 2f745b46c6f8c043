package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"hbmsim/internal/membackend"
	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// Checkpoint / Resume serialise the simulator's full tick-accurate
// dynamic state, so a long run can be snapshotted between Steps and
// continued later — in another process — with Results and Observer event
// streams bit-identical to the uninterrupted run (checkpoint_test.go
// pins that for every policy × arbiter × mapping).
//
// On-disk format (all integers varint-encoded, see internal/snap):
//
//	magic "HBMSNAP1"          8 bytes
//	format version            u64 (currently 3; version 3 replaced the
//	                               'I' in-flight section with the
//	                               backend-owned 'B' section; version 2
//	                               replaced the queue-length Welford
//	                               state with the exact integer depth
//	                               sum and tick count)
//	fingerprint               u64  FNV-1a over the defaulted Config and
//	                               the workload's traces; Resume refuses
//	                               a snapshot whose fingerprint does not
//	                               match its own Config/workload
//	'S' sim scalars           seq, tick, truncated flag, metrics
//	                          (makespan/fetches/evictions/remaps, queue-
//	                          depth sum + sampled tick count, optional
//	                          histogram)
//	'C' per-core states       trace cursor, request tick, queued/done,
//	                          completion, starvation gap, response stats
//	'A' active set            core IDs, strictly ascending
//	'B' memory backend        the backend's in-flight/tier state (layout
//	                          is the backend's own; the reference
//	                          model's payload is byte-identical to the
//	                          old 'I' section, which is how version-2
//	                          snapshots decode — see Resume)
//	'P' priority permutation  pri[core] = rank, validated as a permutation
//	'H' HBM store             residency + replacement-policy state
//	'Q' arbiter queue         queued requests (+ rng position for Random)
//	'R' permuter              rng position (Dynamic only)
//	checksum                  8 fixed bytes, FNV-64a over the payload
//
// Only static state is reconstructed rather than stored: Resume builds a
// fresh Sim with New (re-running page compaction, CSR/Belady tables, and
// slot-hash precomputation from the same Config and traces — all
// deterministic) and then overwrites the dynamic state from the
// snapshot. Every decoded length and index is bounds-checked against the
// freshly built simulator, every rng draw count against what a run can
// reach by the snapshot's tick, and the decoded sections against each
// other (checkRestored); expensive restore work (rng replay) is deferred
// until all of that and the checksum have passed, so a truncated,
// corrupted or forged snapshot produces an error — never a panic or a
// hang, however mangled.

// FormatVersion is the snapshot format version written by Checkpoint.
// Resume also reads legacyFormatVersion snapshots when the configured
// backend is the reference model (the only backend that existed when
// they were written).
const FormatVersion = 3

// legacyFormatVersion is the pre-membackend snapshot format: identical
// to version 3 except the in-flight section is tagged 'I' instead of
// 'B'. The payloads match byte-for-byte for the reference backend.
const legacyFormatVersion = 2

// snapMagic identifies an hbmsim snapshot file.
var snapMagic = [8]byte{'H', 'B', 'M', 'S', 'N', 'A', 'P', '1'}

// ErrSnapshotMismatch reports a structurally valid snapshot taken under
// a different Config or workload than the one Resume was given.
var ErrSnapshotMismatch = errors.New("core: snapshot fingerprint does not match this config/workload")

// Section tags.
const (
	tagScalars  = 'S'
	tagCores    = 'C'
	tagActive   = 'A'
	tagBackend  = 'B'
	tagInflight = 'I' // legacy (format version 2): reference backend in-flight transfers
	tagPri      = 'P'
	tagStore    = 'H'
	tagArbiter  = 'Q'
	tagPermuter = 'R'
)

// fnv64 is a tiny FNV-1a accumulator for fingerprints.
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (f *fnv64) u64(v uint64) {
	h := uint64(*f)
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
	*f = fnv64(h)
}

func (f *fnv64) str(s string) {
	f.u64(uint64(len(s)))
	h := uint64(*f)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	*f = fnv64(h)
}

// ConfigHash fingerprints a Config after applying defaults, so a zero
// field and its documented default hash identically.
func ConfigHash(cfg Config) uint64 {
	cfg = cfg.withDefaults()
	f := newFNV()
	f.u64(uint64(cfg.HBMSlots))
	f.u64(uint64(cfg.Channels))
	f.str(string(cfg.Arbiter))
	f.str(string(cfg.Replacement))
	f.str(string(cfg.Mapping))
	f.str(string(cfg.Permuter))
	f.u64(uint64(cfg.RemapPeriod))
	f.u64(uint64(cfg.FetchLatency))
	// The backend folds in only when it is not the reference model: a
	// defaulted config must keep hashing exactly as it did before the
	// backend field existed, so pre-backend fingerprints (snapshots,
	// sweep journals, result-cache keys) stay valid.
	if c := cfg.Backend.Canonical(); c != string(membackend.Reference) {
		f.str(c)
	}
	f.u64(uint64(cfg.Seed))
	f.u64(uint64(cfg.MaxTicks))
	if cfg.CollectHistogram {
		f.u64(1)
	} else {
		f.u64(0)
	}
	return uint64(f)
}

// WorkloadHash fingerprints per-core traces (core count, lengths, and
// every reference, in order).
func WorkloadHash(traces [][]model.PageID) uint64 {
	f := newFNV()
	f.u64(uint64(len(traces)))
	for _, tr := range traces {
		f.u64(uint64(len(tr)))
		for _, p := range tr {
			f.u64(uint64(p))
		}
	}
	return uint64(f)
}

// Fingerprint combines ConfigHash and WorkloadHash into the single value
// stored in snapshot headers (and used by sweep journals to key rows).
func Fingerprint(cfg Config, traces [][]model.PageID) uint64 {
	return combineFingerprint(ConfigHash(cfg), WorkloadHash(traces))
}

func combineFingerprint(configHash, workloadHash uint64) uint64 {
	f := newFNV()
	f.u64(configHash)
	f.u64(workloadHash)
	return uint64(f)
}

// fingerprint returns the simulator's own Fingerprint, computed on first
// use: hashing every reference costs O(refs), and a long run checkpoints
// many times. The traces held by the cores are dense, so each reference
// is translated back to its original ID — making the value identical to
// Fingerprint(cfg, raw).
func (s *Sim) fingerprint() uint64 {
	if s.fpSet {
		return s.fp
	}
	f := newFNV()
	f.u64(uint64(len(s.traces)))
	for i := range s.traces {
		tr := s.traces[i]
		f.u64(uint64(len(tr)))
		for _, p := range tr {
			f.u64(uint64(s.orig(p)))
		}
	}
	s.fp, s.fpSet = combineFingerprint(ConfigHash(s.cfg), uint64(f)), true
	return s.fp
}

// Checkpoint writes a resumable snapshot of the simulator's state to w.
// Call it only between Steps (the tick loop is atomic per tick). The
// attached Observer is not part of the state; re-attach one after
// Resume.
func (s *Sim) Checkpoint(wr io.Writer) error {
	storeSaver, ok := s.store.(snap.Saver)
	if !ok {
		return fmt.Errorf("core: store %T does not support checkpointing", s.store)
	}
	arbSaver, ok := s.arb.(snap.Saver)
	if !ok {
		return fmt.Errorf("core: arbiter %T does not support checkpointing", s.arb)
	}
	s.flush(s.tick + 1)
	s.settle()

	w := snap.NewWriter(wr)
	w.Raw(snapMagic[:])
	w.U64(FormatVersion)
	w.U64(s.fingerprint())

	w.Tag(tagScalars)
	w.U64(s.seq)
	w.U64(uint64(s.tick))
	w.Bool(s.truncd)
	w.U64(uint64(s.makespan))
	w.U64(s.fetches)
	w.U64(s.evictions)
	w.U64(s.remaps)
	w.U64(s.queueSum)
	w.U64(s.queueTicks)
	w.Bool(s.hist != nil)
	if s.hist != nil {
		s.hist.SaveState(w)
	}

	w.Tag(tagCores)
	for i := range s.cores {
		c := &s.cores[i]
		w.Int(s.pos[i])
		w.U64(uint64(s.reqTick[i]))
		w.Bool(s.queued[i])
		w.Bool(c.done)
		w.U64(uint64(c.completion))
		w.U64(uint64(c.lastServe))
		w.U64(uint64(c.maxGap))
		w.U64(c.resp.hits)
		c.resp.miss.SaveState(w)
	}

	w.Tag(tagActive)
	active := s.activeSet()
	w.Int(len(active))
	for _, ci := range active {
		w.U64(uint64(ci))
	}

	w.Tag(tagBackend)
	s.backend.SaveState(w)

	w.Tag(tagPri)
	for _, r := range s.pri {
		w.I64(int64(r))
	}

	w.Tag(tagStore)
	storeSaver.SaveState(w)

	w.Tag(tagArbiter)
	arbSaver.SaveState(w)

	w.Tag(tagPermuter)
	permSaver, hasPermState := s.perm.(snap.Saver)
	w.Bool(hasPermState)
	if hasPermState {
		permSaver.SaveState(w)
	}

	return w.Finish()
}

// Resume reconstructs a simulator from a snapshot written by Checkpoint.
// cfg and traces must be exactly the Config and workload of the
// checkpointed run: Resume rebuilds all static state with New (page
// compaction, policy tables, hashes — deterministic in cfg and traces)
// and refuses the snapshot (ErrSnapshotMismatch) when its fingerprint
// disagrees. The returned simulator continues the run tick-for-tick as
// if it had never stopped.
func Resume(rd io.Reader, cfg Config, traces [][]model.PageID) (*Sim, error) {
	s, err := New(cfg, traces)
	if err != nil {
		return nil, err
	}
	r := snap.NewReader(rd)
	var magic [8]byte
	r.Raw(magic[:])
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: reading snapshot header: %w", err)
	}
	if magic != snapMagic {
		return nil, fmt.Errorf("core: not an hbmsim snapshot (magic %q)", magic[:])
	}
	ver := r.U64()
	if r.Err() == nil && ver != FormatVersion && ver != legacyFormatVersion {
		return nil, fmt.Errorf("core: snapshot format version %d, this build reads %d (and legacy %d)", ver, FormatVersion, legacyFormatVersion)
	}
	if ver == legacyFormatVersion && s.cfg.Backend.Kind != membackend.Reference {
		return nil, fmt.Errorf("core: version-%d snapshots predate memory backends and hold only reference-backend state, but this config selects %q", legacyFormatVersion, s.cfg.Backend.Kind)
	}
	if fp := r.U64(); r.Err() == nil && fp != s.fingerprint() {
		return nil, ErrSnapshotMismatch
	}
	r.MaxCores = uint64(len(s.cores))
	r.MaxPages = uint64(s.universe)

	if err := s.loadState(r, ver); err != nil {
		return nil, err
	}
	if err := r.Verify(); err != nil {
		return nil, err
	}
	// The residency table is derived state: read it off the loaded store.
	for pg := range s.resident {
		s.resident[pg] = s.store.Contains(model.PageID(pg))
	}
	if err := s.checkRestored(); err != nil {
		return nil, err
	}
	// Expensive restore work (rng stream replay) runs only now, with the
	// snapshot authenticated end to end and its sections consistent.
	for _, c := range []any{s.store, s.arb, s.perm} {
		if f, ok := c.(snap.Finisher); ok {
			if err := f.FinishLoad(); err != nil {
				return nil, err
			}
		}
	}
	s.epoch = s.tick       // recency keys count from the restored tick
	s.base = *s.counters() // the Sim's own counts so far: the ledger counts from here
	return s, nil
}

// loadState overwrites the freshly constructed simulator's dynamic state
// from the snapshot body, validating as it decodes. ver is the
// snapshot's format version: legacy (version-2) snapshots tag the
// backend section 'I' but carry the same reference-backend payload.
func (s *Sim) loadState(r *snap.Reader, ver uint64) error {
	p := len(s.cores)

	r.Tag(tagScalars, "sim scalars")
	s.seq = r.U64()
	s.tick = model.Tick(r.U64())
	s.truncd = r.Bool()
	s.makespan = model.Tick(r.U64())
	s.fetches = r.U64()
	s.evictions = r.U64()
	s.remaps = r.U64()
	s.queueSum = r.U64()
	s.queueTicks = r.U64()
	// A random stream draws at most once per core per tick (a Random pop
	// or eviction draws once, a Dynamic remap once per core) but for a
	// rare rejected draw, so no run reaches twice that by the snapshot's
	// tick, or by the tick cap, where every run stops.
	r.MaxDraws = 2 * uint64(p) * min(uint64(s.tick), uint64(s.capT), math.MaxUint64/(2*uint64(p)))
	r.Tick = uint64(s.tick)
	if hasHist := r.Bool(); r.Err() == nil {
		if hasHist != (s.hist != nil) {
			r.Failf("core: snapshot histogram presence %v, config says %v", hasHist, s.hist != nil)
		} else if s.hist != nil {
			s.hist.LoadState(r)
		}
	}

	r.Tag(tagCores, "core states")
	s.doneN = 0
	for i := range s.cores {
		c := &s.cores[i]
		s.pos[i] = r.Len(len(s.traces[i]), "trace cursor")
		s.reqTick[i] = model.Tick(r.U64())
		s.queued[i] = r.Bool()
		c.done = r.Bool()
		c.completion = model.Tick(r.U64())
		c.lastServe = model.Tick(r.U64())
		c.maxGap = model.Tick(r.U64())
		c.resp.hits = r.U64()
		c.resp.miss.LoadState(r)
		if r.Err() != nil {
			return r.Err()
		}
		if c.done != (s.pos[i] == len(s.traces[i])) {
			return fmt.Errorf("core: snapshot core %d has done %v with its cursor at %d of %d references", i, c.done, s.pos[i], len(s.traces[i]))
		}
		if c.done {
			s.doneN++
		}
	}

	r.Tag(tagActive, "active set")
	n := r.Len(p, "active cores")
	s.active = s.active[:0]
	prev := int64(-1)
	for i := 0; i < n; i++ {
		ci := r.Core()
		if r.Err() != nil {
			return r.Err()
		}
		if int64(ci) <= prev {
			return fmt.Errorf("core: snapshot active set not strictly ascending at core %d", ci)
		}
		prev = int64(ci)
		s.active = append(s.active, model.CoreID(ci))
	}

	if ver == legacyFormatVersion {
		// The v2 'I' payload is byte-identical to the reference backend's
		// SaveState (Resume already rejected other backends).
		r.Tag(tagInflight, "in-flight transfers")
	} else {
		r.Tag(tagBackend, "memory backend")
	}
	s.backend.LoadState(r)
	if r.Err() != nil {
		return r.Err()
	}

	r.Tag(tagPri, "priority permutation")
	seen := make([]bool, p)
	for i := range s.pri {
		v := r.I64()
		if r.Err() != nil {
			return r.Err()
		}
		if v < 0 || v >= int64(p) || seen[v] {
			return fmt.Errorf("core: snapshot priorities are not a permutation (rank %d)", v)
		}
		seen[v] = true
		s.pri[i] = int32(v)
	}
	// Re-slot the arbiter under the restored permutation before its queue
	// is loaded (Priority places requests by rank).
	s.arb.UpdatePriorities(s.pri)

	r.Tag(tagStore, "hbm store")
	store, ok := s.store.(snap.Loader)
	if !ok {
		return fmt.Errorf("core: store %T does not support checkpointing", s.store)
	}
	store.LoadState(r)

	r.Tag(tagArbiter, "arbiter queue")
	arb, ok := s.arb.(snap.Loader)
	if !ok {
		return fmt.Errorf("core: arbiter %T does not support checkpointing", s.arb)
	}
	arb.LoadState(r)

	r.Tag(tagPermuter, "permuter")
	if hasPermState := r.Bool(); r.Err() == nil && hasPermState {
		perm, ok := s.perm.(snap.Loader)
		if !ok {
			return fmt.Errorf("core: snapshot has permuter state but %T holds none", s.perm)
		}
		perm.LoadState(r)
	}
	return r.Err()
}

// checkRestored refuses a snapshot whose sections contradict each other,
// as a faulty or forged writer's can under a valid checksum, on state no
// run reaches and Step would fail on. A finished core is not active and
// waits on no request. An unfinished core is either active or waits on
// one request, queued or in flight, for its current page, which is not
// resident, and its queued flag says which. No core requests past the
// next tick, and a queued request was issued when its core requested.
func (s *Sim) checkRestored() error {
	waits := make([]int, len(s.cores)) // requests outstanding per core
	reqs := s.backend.Transfers(nil)
	for _, r := range s.arb.Requests(nil) {
		if r.Issued != s.reqTick[r.Core] {
			return fmt.Errorf("core: snapshot queues core %d's request as issued at tick %d, but the core requested at tick %d", r.Core, r.Issued, s.reqTick[r.Core])
		}
		reqs = append(reqs, membackend.Transfer{Core: r.Core, Page: r.Page})
	}
	for _, x := range reqs {
		if c := x.Core; s.cores[c].done || x.Page != s.traces[c][s.pos[c]] || s.resident[x.Page] {
			return fmt.Errorf("core: snapshot holds a request for page %d of core %d, which is finished, resident or not the core's current page", x.Page, c)
		}
		waits[x.Core]++
	}
	for c := range s.cores {
		_, active := slices.BinarySearch(s.active, model.CoreID(c))
		done := s.cores[c].done
		if waiting := !done && !active; done && active || waits[c] > 1 || (waits[c] == 1) != waiting || s.queued[c] != waiting || s.reqTick[c] > s.tick+1 {
			return fmt.Errorf("core: snapshot has core %d done %v, active %v, queued %v with %d requests outstanding, requesting at tick %d on tick %d",
				c, done, active, s.queued[c], waits[c], s.reqTick[c], s.tick)
		}
	}
	return nil
}
