package core

import (
	"fmt"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/hbm"
	"hbmsim/internal/membackend"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
	"hbmsim/internal/stats"
)

// coreState holds one core's cold per-run accounting. The per-tick hot
// fields — trace pointer, cursor, request tick, queued flag — live in
// parallel slices on Sim (struct-of-arrays), so the tick loop and the
// fast-forward scan stream flat arrays instead of striding through
// per-core structs.
type coreState struct {
	done bool

	resp       respAcc
	completion model.Tick
	// lastServe and maxGap track the starvation metric: the longest
	// stretch of ticks between two consecutive serves to this core.
	lastServe model.Tick
	maxGap    model.Tick
}

// Sim is a stepwise simulator. Construct with New, then call Step until it
// returns false (or use Run). Not safe for concurrent use.
type Sim struct {
	cfg   Config
	cores []coreState

	// Struct-of-arrays per-core hot state, indexed by CoreID.
	traces [][]model.PageID
	// pos is the trace cursor: traces[i][pos[i]] is core i's current
	// reference.
	pos []int
	// reqTick is the tick on which the current reference was first
	// requested; response time is serveTick - reqTick + 1.
	reqTick []model.Tick
	// queued is set while the core's request sits in the DRAM queue.
	queued []bool

	store  hbm.Store
	arb    arbiter.Arbiter
	perm   arbiter.Permuter
	pri    []int32
	seq    uint64
	tick   model.Tick
	capT   model.Tick
	doneN  int
	truncd bool

	// active lists the cores that need step-2/step-4 processing this tick:
	// cores with a fresh reference, cores whose fetch just completed, and
	// cores whose about-to-be-served page was evicted between steps 2 and
	// 4 of the previous tick. Queued cores are dormant until fetched.
	active     []model.CoreID
	nextActive []model.CoreID
	candidates []model.CoreID

	// backend owns everything between a channel grant and the page
	// landing in HBM (see internal/membackend): the paper's model is the
	// reference backend, selected by the zero Config.Backend. wbSink is
	// the backend's optional writeback interface (nil when eviction is
	// free, as in the paper's model), landBuf the reused Drain scratch.
	backend membackend.Backend
	wbSink  membackend.WritebackSink
	landBuf []membackend.Transfer

	obs Observer
	// priOld is scratch for OnRemap's before-image; allocated lazily.
	priOld []int32

	// origOf translates the dense internal page IDs back to the caller's
	// original PageIDs at the Observer boundary (origOf[dense] = original).
	// nil when the workload was already dense, so no translation is needed.
	origOf []model.PageID
	// universe is the dense page-ID universe size U from compaction; -1
	// for the uncompacted differential-test path (which does not support
	// checkpointing or fast-forwarding).
	universe int

	// Fast-forward state (see Step). noFF disables the batched path: set
	// for uncompacted simulators, and by differential tests that pin the
	// batched stepper against the plain one.
	noFF bool
	// touchNop records that store.Touch is a no-op for this configuration
	// (direct-mapped stores, FIFO and Random replacement), so a stretch's
	// touch replay can be skipped entirely.
	touchNop bool
	// batchT is the store's batched-touch entry point, asserted once.
	batchT hbm.BatchToucher
	// boundary is the caller's observation cadence (SetBoundary): Step
	// never fast-forwards across a multiple of it.
	boundary model.Tick
	// ownerOf maps each dense page to the one core that references it
	// (the model's sequences are disjoint, Property 1).
	ownerOf []int32
	// Next-miss scan cache, per core: refs [pos[i], scanTo[i]) are
	// verified resident (scanTo[i] < pos[i] marks the cache invalid), and
	// scanMiss[i] records that traces[i][scanTo[i]] was non-resident when
	// scanned. scanGen[i] increments on every fresh rescan; pageGen[p] is
	// stamped with the owner's generation when p is verified resident, so
	// an eviction invalidates the owner's cache only when the page is
	// actually inside the verified window (pageGen match) — keeping the
	// scan amortised O(1) per serve even under eviction-heavy phases.
	pageGen  []uint64
	scanGen  []uint64
	scanTo   []int
	scanMiss []bool
	// scansLive counts cores with a live cache (scanTo >= 0); eviction
	// invalidation is skipped entirely while it is zero, so runs where
	// the fast path never engages pay one branch per eviction, not three
	// scattered loads.
	scansLive int
	// ffHold backs the attempt hold-off: after a disappointing attempt
	// (stretch shorter than ffPayoff), the next ffHoldTicks slow ticks
	// skip fast-forward attempts entirely. On thrashing workloads —
	// constant evictions keep invalidating the scan caches and stretches
	// never grow past a few ticks — attempts cost O(cores) each without
	// paying for themselves; the hold-off caps that overhead at ~1/32 of
	// the slow path. Purely a scheduling hint: it never changes which
	// ticks are foldable, so Results, events, and snapshots are
	// untouched, and it is deliberately not checkpointed.
	ffHold int
	// touchBuf is the reused scratch for batched touch replay.
	touchBuf []model.PageID

	// Ticks and stretches the fast-forward path batched (see Counters).
	ffTicks     uint64
	ffStretches uint64

	// metrics
	makespan  model.Tick
	fetches   uint64
	evictions uint64
	remaps    uint64
	// queueSum/queueTicks accumulate the end-of-tick DRAM-queue depth as
	// exact integers (AvgQueueLen = queueSum/queueTicks), so the
	// fast-forward path can fold a stretch of zero-depth samples in O(1)
	// with bit-identical results.
	queueSum   uint64
	queueTicks uint64
	hist       *stats.Histogram

	// fp caches fingerprint() once fpSet: the config and traces never
	// change after New, so the workload is hashed at most once per Sim.
	fp    uint64
	fpSet bool

	// The counter ledger (see counters), after every per-tick field so
	// the hot fields keep their layout, and the counter observers.
	led, base Counters
	missSum   uint64
	cobs      []CounterObserver
	nextPush  model.Tick

	cruiseState
}

// New builds a simulator for the given per-core reference sequences.
// traces[i] is core i's sequence; the model requires the sequences to
// reference mutually disjoint page sets (use trace.Workload to build
// compliant inputs — disjointness is not re-verified here).
//
// New first compacts the workload's page IDs into the dense space
// [0, U) (see compactTraces), so the store and replacement policy index
// flat slices instead of hashing sparse 64-bit IDs on every tick.
// Observers always see the original PageIDs: dense IDs are translated
// back at the event boundary, and Results carry no page IDs at all.
func New(cfg Config, traces [][]model.PageID) (*Sim, error) {
	return newSim(cfg, traces, true)
}

// newUncompacted builds the simulator over the retained map-based
// reference stores and the original sparse page IDs. It exists for the
// differential tests that pin the dense fast path to the map-based
// stores; production callers use New.
func newUncompacted(cfg Config, traces [][]model.PageID) (*Sim, error) {
	return newSim(cfg, traces, false)
}

func newSim(cfg Config, traces [][]model.PageID, compact bool) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(len(traces)); err != nil {
		return nil, err
	}
	var origOf []model.PageID
	universe := -1
	if compact {
		traces, origOf, universe = compactTraces(traces)
	}
	var store hbm.Store
	if cfg.Mapping == MappingDirect {
		if compact {
			dm, err := hbm.NewDenseDirectMapped(cfg.HBMSlots, cfg.Seed+4, universe, origOf)
			if err != nil {
				return nil, err
			}
			store = dm
		} else {
			dm, err := hbm.NewDirectMapped(cfg.HBMSlots, cfg.Seed+4)
			if err != nil {
				return nil, err
			}
			store = dm
		}
	} else {
		var pol replacement.Policy
		if cfg.Replacement == replacement.Belady {
			// The clairvoyant offline baseline needs the workload's
			// future; wire the traces through here.
			if compact {
				pol = replacement.NewBeladyDense(traces, universe)
			} else {
				pol = replacement.NewBelady(traces)
			}
		} else {
			var err error
			if compact {
				pol, err = replacement.NewDense(cfg.Replacement, universe, cfg.Seed+1)
			} else {
				pol, err = replacement.New(cfg.Replacement, cfg.Seed+1)
			}
			if err != nil {
				return nil, err
			}
		}
		as, err := hbm.NewAssoc(cfg.HBMSlots, pol)
		if err != nil {
			return nil, err
		}
		store = as
	}
	arb, err := arbiter.New(cfg.Arbiter, len(traces), cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	perm, err := arbiter.NewPermuter(cfg.Permuter, cfg.Seed+3)
	if err != nil {
		return nil, err
	}
	backend, err := membackend.New(cfg.Backend, cfg.Channels, cfg.FetchLatency)
	if err != nil {
		return nil, err
	}

	// Every per-tick slice is preallocated to its bound here — at most
	// one entry per core in the active/candidate sets and at most
	// Channels*FetchLatency grants in flight — so the steady-state tick
	// loop performs no allocations.
	p := len(traces)
	u := 0
	if universe > 0 {
		u = universe
	}
	// Same-typed per-core arrays share one backing allocation each (the
	// three-index caps keep a future append from clobbering the sibling);
	// construction stays a handful of allocations even with the
	// fast-forward scan caches.
	intBuf := make([]int, 3*p)
	boolBuf := make([]bool, 2*p)
	i32Buf := make([]int32, p+u)
	tickBuf := make([]model.Tick, 3*p)
	s := &Sim{
		cfg:        cfg,
		store:      store,
		arb:        arb,
		perm:       perm,
		cores:      make([]coreState, p),
		traces:     traces,
		pos:        intBuf[:p:p],
		scanTo:     intBuf[p : 2*p : 2*p],
		reqTick:    tickBuf[:p:p],
		queued:     boolBuf[:p:p],
		scanMiss:   boolBuf[p:],
		pri:        i32Buf[:p:p],
		origOf:     origOf,
		universe:   universe,
		active:     make([]model.CoreID, 0, p),
		nextActive: make([]model.CoreID, 0, p),
		candidates: make([]model.CoreID, 0, p),
		backend:    backend,
		landBuf:    make([]membackend.Transfer, 0, backend.MaxInFlight()),
	}
	s.wbSink, _ = backend.(membackend.WritebackSink)
	for i := range s.scanTo {
		s.scanTo[i] = -1
	}
	if cfg.CollectHistogram {
		s.hist = &stats.Histogram{}
	}
	var total uint64
	for i, tr := range traces {
		s.pri[i] = int32(i)
		if len(tr) == 0 {
			s.cores[i].done = true
			s.doneN++
		} else {
			s.reqTick[i] = 1
			s.active = append(s.active, model.CoreID(i))
		}
		total += uint64(len(tr))
	}
	s.capT = cfg.MaxTicks
	if s.capT == 0 {
		// Generous automatic cap: legitimate makespans are bounded by
		// roughly 2x the total reference count (every tick either serves
		// or fetches when work remains); the slack absorbs small-k edge
		// behaviour while still halting eviction livelocks (possible when
		// k is within q of the working set, see DESIGN.md §4).
		s.capT = 8*model.Tick(total+1) + 1024*model.Tick(len(traces)+cfg.HBMSlots+cfg.Channels)
		// Slow backends stretch every miss by their worst-case transfer
		// time; widen the automatic cap accordingly (the reference model's
		// formula is untouched).
		if b := cfg.Backend.WithDefaults(); b.Kind != membackend.Reference {
			perMiss := (b.PageBytes+b.BytesPerTick-1)/b.BytesPerTick + b.LatencyTicks
			if h := b.SlowReadTicks + b.SlowWriteTicks; b.Kind == membackend.Hybrid && h > perMiss {
				perMiss = h
			}
			s.capT += model.Tick(perMiss) * model.Tick(total+1)
		}
	}
	if compact {
		s.ownerOf = i32Buf[p:]
		for ci, tr := range traces {
			for _, pg := range tr {
				s.ownerOf[pg] = int32(ci)
			}
		}
		u64Buf := make([]uint64, u+p)
		s.pageGen = u64Buf[:u:u]
		s.scanGen = u64Buf[u : u+p : u+p]
		s.batchT, _ = store.(hbm.BatchToucher)
		// Touch is a no-op exactly when no recency or clairvoyant state
		// exists to update: direct-mapped slots, FIFO insertion order,
		// Random's uniform victims. LRU, CLOCK, and Belady all observe
		// touches, so their stretches replay batched Touches instead.
		s.touchNop = cfg.Mapping == MappingDirect ||
			cfg.Replacement == replacement.FIFO || cfg.Replacement == replacement.Random
		s.initCruise(intBuf[2*p:], tickBuf[p:])
	} else {
		s.noFF = true
	}
	return s, nil
}

// Tick returns the current simulation tick. A Step that fast-forwards a
// contention-free stretch advances the tick by the whole stretch, so the
// tick count can exceed the number of Step calls.
func (s *Sim) Tick() model.Tick { return s.tick }

// Done reports whether every core has finished.
func (s *Sim) Done() bool { return s.doneN == len(s.cores) }

// Remaining returns the number of references not yet served across all
// cores. On a simulator resumed from a snapshot it reflects the restored
// cursors, which lets callers report monotone progress across restarts.
func (s *Sim) Remaining() int {
	n := 0
	for i := range s.traces {
		n += len(s.traces[i]) - s.pos[i]
	}
	return n - int(s.cruisedSoFar())
}

// SetBoundary declares the caller's observation cadence: Step will never
// fast-forward across a tick that is a positive multiple of every
// (landing exactly on one is allowed), so a caller that polls
// Tick()%every == 0 between Steps — a checkpoint writer, a progress
// poller — observes exactly the boundary ticks it would under
// single-tick stepping. Zero (the default) removes the constraint.
func (s *Sim) SetBoundary(every model.Tick) { s.boundary = every }

// FastForwardedTicks returns the ticks the fast-forward path batched,
// or in a cruising run the ticks it jumped: the ledger's FFTicks (see
// Counters), counted from New or Resume.
func (s *Sim) FastForwardedTicks() uint64 { return s.ffTicks }

// FastForwardedStretches returns the number of contention-free stretches
// the fast-forward path batched, or in a cruising run its jumps.
func (s *Sim) FastForwardedStretches() uint64 { return s.ffStretches }

// CruisedServes returns the serves folded by cruising cores rather than
// stepped one by one: the ledger's Cruised, counted from New or Resume.
func (s *Sim) CruisedServes() uint64 { return s.cruised + s.cruisedSoFar() }

// Step advances the simulation and reports whether it should continue
// (false once all cores are done or the tick cap is hit). One call
// normally executes one tick; when the DRAM queue is empty and no
// transfer completes before the stretch ends, Step instead
// fast-forwards the whole contention-free stretch in one call (see
// fastForward) with bit-identical Results, snapshots, and Observer
// event streams. With no event observer attached, Step cruises instead
// (see stepCruise): each tick handles only the cores something happens
// to, and a tick with nothing due jumps ahead, with bit-identical
// Results and snapshots.
func (s *Sim) Step() bool {
	if s.Done() || s.truncd || s.tick >= s.capT {
		s.truncd = !s.Done() // true once the tick cap is hit
		s.pushCounters(true)
		return false
	}
	if s.cruise {
		if !s.noFF {
			return s.stepCruise()
		}
		s.disengage()
	}

	// Fast path: with no queued request, residency is static — step 2
	// queues nothing while every active core hits, step 3's need is 0 so
	// nothing is evicted, and step 5 grants and lands nothing — so the
	// next interesting tick is computable and the stretch up to it can be
	// batch-applied. Transfers may be in flight (a slow backend can hold
	// them for many ticks while other cores keep hitting): stretchLen then
	// caps the stretch strictly before the backend's NextEventTick, so the
	// landing tick itself always runs the slow path. Attempts are held off
	// for a while after one that found no worthwhile stretch (see ffHold):
	// short stretches are still folded when found, but a workload that
	// keeps producing them stops paying the attempt cost on every quiet
	// tick.
	if s.ffHold > 0 {
		s.ffHold--
	} else if !s.noFF && s.arb.Len() == 0 && len(s.active) > 0 {
		if n := s.stretchLen(); n > 0 {
			s.fastForward(n)
			if n < ffPayoff {
				s.ffHold = ffHoldTicks
			}
			return s.more()
		}
		s.ffHold = ffHoldTicks
	}

	s.tick++
	t := s.tick

	// Step 1: remap priorities.
	if s.cfg.RemapPeriod > 0 && t%s.cfg.RemapPeriod == 0 {
		s.remap(t)
	}

	s.request(t)

	// Step 3: evict so this tick's landing fetches have room (associative
	// stores only; direct-mapped stores evict on conflict at step 5
	// instead). The backend answers how many transfers will land this
	// tick: for the reference model with unit fetch latency those are the
	// ones granted now, min(q, queueLen); otherwise the due in-flight
	// arrivals (so this still "evicts up to q pages" as §3.1 prescribes).
	need := s.backend.DueAt(t, s.arb.Len())
	evicted := s.store.EnsureRoom(need)
	for _, pg := range evicted {
		s.evicted(pg, t, t)
	}
	evictedAny := len(evicted) > 0

	// Step 4: serve every candidate whose page survived step 3. Pages
	// only leave the store through EnsureRoom between steps 2 and 4
	// (direct-mapped displacement happens at step-5 inserts), so when
	// step 3 evicted nothing every candidate is still resident and the
	// per-candidate re-check is skipped.
	s.nextActive = s.nextActive[:0]
	if evictedAny {
		for _, ci := range s.candidates {
			page := s.traces[ci][s.pos[ci]]
			if !s.store.Contains(page) {
				// Evicted between steps 2 and 4; the core re-requests on
				// the next tick (as in the reference loop, where step 2 of
				// the next tick re-queues it). Response time keeps accruing.
				s.nextActive = append(s.nextActive, ci)
				continue
			}
			s.store.Touch(page)
			if s.serve(ci, t) {
				s.nextActive = append(s.nextActive, ci)
			}
		}
	} else {
		for _, ci := range s.candidates {
			s.store.Touch(s.traces[ci][s.pos[ci]])
			if s.serve(ci, t) {
				s.nextActive = append(s.nextActive, ci)
			}
		}
	}

	// Step 5: grant queued requests a far channel — as many as the
	// backend admits this tick (the reference model's q; a bandwidth
	// backend only offers its free channels) — then land every transfer
	// the backend completes now (immediately, for the model's unit
	// latency).
	granted := s.grant(t)
	landStart := len(s.nextActive)
	s.land(t)

	s.endTick(t, granted)
	s.rebuildActive(landStart)
	return s.more()
}

// request is step 2: queue the active cores whose current page is not
// resident and collect the others as candidates. Cores are processed in
// index order, exactly as the reference loop iterates "for each r*_i":
// the order fixes FIFO tie-breaking among same-tick arrivals and the LRU
// recency of same-tick touches. The active set is kept sorted across
// ticks (see rebuildActive), so no per-tick sort is needed here.
func (s *Sim) request(t model.Tick) {
	s.candidates = s.candidates[:0]
	for _, ci := range s.active {
		page := s.traces[ci][s.pos[ci]]
		if s.store.Contains(page) {
			s.candidates = append(s.candidates, ci)
		} else {
			s.seq++
			s.arb.Push(model.Request{Core: ci, Page: page, Issued: s.reqTick[ci], Seq: s.seq})
			s.queued[ci] = true
			if s.obs != nil {
				s.obs.OnQueue(ci, s.orig(page), t)
			}
		}
	}
}

// evicted accounts for page pg leaving HBM at tick t; next is the first
// tick whose serve the eviction can still prevent (see cut).
func (s *Sim) evicted(pg model.PageID, t, next model.Tick) {
	s.evictions++
	s.invalidateScan(pg)
	if s.cruise {
		s.cut(pg, next)
	}
	if s.obs != nil {
		s.obs.OnEvict(s.orig(pg), t)
	}
	if s.wbSink != nil {
		s.wbSink.Writeback(t, pg, 0)
	}
}

// land is step 5's second half: insert every transfer the backend
// completes at tick t and queue its core for the next tick.
func (s *Sim) land(t model.Tick) {
	s.landBuf = s.backend.Drain(t, s.landBuf[:0])
	for i, a := range s.landBuf {
		if victim, displaced, err := s.store.Insert(a.Page); err != nil {
			// Step 3 guaranteed room for every due arrival; this is
			// unreachable unless an invariant is broken.
			panic(fmt.Sprintf("core: fetch failed at tick %d: %v", t, err))
		} else if displaced {
			s.evicted(victim, t, t+1)
		}
		if s.keyed {
			s.noteEager(a.Page, s.key(t, len(s.cores)+i))
		}
		s.fetches++
		if s.obs != nil {
			s.obs.OnFetch(a.Core, s.orig(a.Page), t)
		}
		s.queued[a.Core] = false
		if s.scanTo[a.Core] >= 0 {
			// The landed page is the core's own current reference (the
			// one the scan stopped on), so its cached run is stale:
			// force a fresh rescan on the next fast-forward attempt.
			s.scanTo[a.Core] = -1
			s.scansLive--
		}
		s.nextActive = append(s.nextActive, a.Core)
	}
}

// remap is step 1 on a remap tick: re-draw the priority permutation.
func (s *Sim) remap(t model.Tick) {
	if s.obs != nil {
		if s.priOld == nil {
			s.priOld = make([]int32, len(s.pri))
		}
		copy(s.priOld, s.pri)
	}
	s.perm.Permute(s.pri)
	s.arb.UpdatePriorities(s.pri)
	s.remaps++
	if s.obs != nil {
		s.obs.OnRemap(t, s.priOld, s.pri)
	}
}

// grant is step 5's first half: grant queued requests a far channel, as
// many as the backend admits at tick t, and return how many it granted.
func (s *Sim) grant(t model.Tick) int {
	granted := 0
	limit := s.backend.GrantLimit(t)
	for i := 0; i < limit; i++ {
		r, ok := s.arb.Pop()
		if !ok {
			break
		}
		granted++
		wait := uint64(t - r.Issued)
		s.led.GrantWait.Buckets[bucket(wait)]++
		s.led.GrantWait.Sum += wait
		if s.obs != nil {
			s.obs.OnGrant(r.Core, s.orig(r.Page), t, t-r.Issued)
		}
		s.backend.Start(t, membackend.Transfer{Core: r.Core, Page: r.Page})
	}
	return granted
}

// endTick samples the end-of-tick queue depth and grant count.
func (s *Sim) endTick(t model.Tick, granted int) {
	depth := s.arb.Len()
	s.queueSum += uint64(depth)
	s.queueTicks++
	s.led.Grants += uint64(granted)
	s.led.QueueDepth.Buckets[bucket(uint64(depth))]++
	if s.obs != nil {
		s.obs.OnTickEnd(t, depth, granted)
	}
}

// rebuildActive builds the next tick's active set in ascending core
// order without a full sort: s.nextActive[:sorted] (step-4 requeues and
// serves) was appended in ascending order, and the tail (landed cores,
// and cores whose cruise ended) is small, so insertion-sort the tail and
// merge the two runs into the retired active buffer.
func (s *Sim) rebuildActive(sorted int) {
	a, tail := s.nextActive[:sorted], s.nextActive[sorted:]
	for i := 1; i < len(tail); i++ {
		v := tail[i]
		j := i - 1
		for j >= 0 && tail[j] > v {
			tail[j+1] = tail[j]
			j--
		}
		tail[j+1] = v
	}
	dst := s.active[:0]
	i, j := 0, 0
	for i < len(a) && j < len(tail) {
		if a[i] <= tail[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, tail[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, tail[j:]...)
	s.active = dst
}

// Attempt hold-off tuning (see the ffHold field). A stretch under
// ffPayoff ticks saves less than the attempt that found it costs, so it
// marks the workload as currently thrashing; attempts then pause for
// ffHoldTicks slow ticks. 32 keeps the worst-case attempt overhead a few
// percent of the slow path while delaying engagement after a phase
// change by a negligible 32 ticks.
const (
	ffPayoff    = 4
	ffHoldTicks = 32
)

// stretchLen computes how many ticks the fast-forward path may batch
// from the current tick: the minimum of the tick cap, the next remap
// tick (exclusive — remap ticks run the slow path so the permuter's rng
// stream and OnRemap events fire on their exact ticks), the caller's
// next observation boundary (inclusive), the backend's next transfer
// completion (exclusive — the landing tick evicts, inserts, and emits
// events, so it must run the slow path), and every active core's
// verified hit run. Zero means the next tick is interesting and must
// run the slow path.
func (s *Sim) stretchLen() model.Tick {
	t0 := s.tick
	lim := s.capT - t0
	if s.backend.InFlight() > 0 {
		ne := s.backend.NextEventTick(t0)
		if ne <= t0+1 {
			return 0
		}
		if d := ne - t0 - 1; d < lim {
			lim = d
		}
	}
	// A single stretch never needs more than ~1G ticks (runs are bounded
	// by trace lengths); clamping keeps the int conversions below safe
	// against caller-supplied MaxTicks near the int64 limit.
	const maxStretch = 1 << 30
	if lim > maxStretch {
		lim = maxStretch
	}
	if T := s.cfg.RemapPeriod; T > 0 {
		if toRemap := T - t0%T; toRemap-1 < lim {
			lim = toRemap - 1
		}
	}
	if B := s.boundary; B > 0 {
		if toB := B - t0%B; toB < lim {
			lim = toB
		}
	}
	for _, ci := range s.active {
		if lim <= 0 {
			return 0
		}
		if r := model.Tick(s.hitRun(ci, int(lim))); r < lim {
			lim = r
		}
	}
	return lim
}

// hitRun returns the length (capped at lim) of core ci's verified hit
// run: the number of consecutive references from its cursor that are
// resident right now. Verified prefixes are cached across calls (see the
// scanTo/scanGen/pageGen fields), so each reference is scanned once per
// residency change and the scan is amortised O(1) per serve.
func (s *Sim) hitRun(ci model.CoreID, lim int) int {
	tr := s.traces[ci]
	pos := s.pos[ci]
	to := s.scanTo[ci]
	if to < pos {
		// Cache invalid (eviction touched the window, or the core's own
		// fetch landed) or overtaken by slow-path serves: fresh scan.
		to = pos
		s.scanMiss[ci] = false
		s.scanGen[ci]++
	}
	if !s.scanMiss[ci] {
		end := min(pos+lim, len(tr))
		gen := s.scanGen[ci]
		// A reference to the page just verified needs no second look.
		prev := ^model.PageID(0)
		if to > pos {
			prev = tr[to-1]
		}
		for ; to < end; to++ {
			if pg := tr[to]; pg != prev {
				if !s.store.Contains(pg) {
					s.scanMiss[ci] = true
					break
				}
				s.pageGen[pg] = gen
				prev = pg
			}
		}
	}
	if s.scanTo[ci] < 0 {
		s.scansLive++
	}
	s.scanTo[ci] = to
	run := to - pos
	if run > lim {
		run = lim
	}
	return run
}

// invalidateScan drops the scan cache of the core owning an evicted
// page, but only when the page sits inside that core's verified window
// (its generation stamp matches): evictions outside the window cannot
// stale the cache, and skipping them keeps eviction-heavy phases from
// forcing quadratic rescans.
func (s *Sim) invalidateScan(pg model.PageID) {
	if s.scansLive == 0 {
		// No core holds a live cache (also true for uncompacted
		// simulators, which never fast-forward): nothing to stale.
		return
	}
	o := s.ownerOf[pg]
	if s.scanTo[o] >= 0 && s.pageGen[pg] == s.scanGen[o] {
		s.scanTo[o] = -1
		s.scansLive--
	}
}

// fastForward batch-applies a stretch of n contention-free ticks
// (s.tick+1 .. s.tick+n) in which every active core hits every tick and
// nothing else happens. The replayed effects are bit-identical to n slow
// Steps: replacement-policy touches are applied in the reference loop's
// exact tick-major, core-index-minor order (batched through the store's
// TouchAll, or skipped when Touch is a no-op), per-core response stats
// are folded in closed form — the stretch's first serve can carry a
// response > 1 when the core's fetch landed on the stretch's first tick;
// every later serve is a unit-response hit. An attached event observer
// receives the identical per-tick OnServe/OnTickEnd event stream; with
// none, the touches are replayed in batches, and with a no-op Touch the
// whole stretch costs O(active).
func (s *Sim) fastForward(n model.Tick) {
	t0 := s.tick
	tEnd := t0 + n

	if s.obs != nil {
		// Event replay interleaves Touch and OnServe per core, exactly as
		// step 4 of the slow path does.
		for k := model.Tick(0); k < n; k++ {
			t := t0 + k + 1
			for _, ci := range s.active {
				pg := s.traces[ci][s.pos[ci]+int(k)]
				if !s.touchNop {
					s.store.Touch(pg)
				}
				resp := model.Tick(1)
				if k == 0 {
					resp = t - s.reqTick[ci] + 1
				}
				s.obs.OnServe(ci, s.orig(pg), t, resp)
			}
			s.obs.OnTickEnd(t, 0, 0)
		}
	} else if !s.touchNop {
		// Replay the recency updates without events, batched through the
		// store: chunked so the scratch buffer stays small on long
		// stretches (TouchAll over consecutive chunks is identical to one
		// call — it is defined as the sequential Touch loop).
		const maxTouchChunk = 1 << 16
		chunk := maxTouchChunk / len(s.active)
		if chunk < 1 {
			chunk = 1
		}
		if need := min(int(n), chunk) * len(s.active); cap(s.touchBuf) < need {
			// Size the scratch for the stretch's largest chunk up front
			// (one allocation instead of append's doubling ladder inside
			// the first long stretch), with a geometric floor so runs of
			// slowly growing stretches reallocate O(log) times, not once
			// per stretch.
			if twice := 2 * cap(s.touchBuf); need < twice {
				need = twice
			}
			if need < 1024 {
				need = 1024
			}
			s.touchBuf = make([]model.PageID, 0, need)
		}
		for k0 := 0; k0 < int(n); k0 += chunk {
			k1 := k0 + chunk
			if k1 > int(n) {
				k1 = int(n)
			}
			buf := s.touchBuf[:0]
			for k := k0; k < k1; k++ {
				for _, ci := range s.active {
					buf = append(buf, s.traces[ci][s.pos[ci]+k])
				}
			}
			s.touchBuf = buf
			if s.batchT != nil {
				s.batchT.TouchAll(buf)
			} else {
				for _, pg := range buf {
					s.store.Touch(pg)
				}
			}
		}
	}

	// Fold the per-core effects of the stretch's n serves in O(1) each.
	finished := false
	for _, ci := range s.active {
		c := &s.cores[ci]
		w1 := t0 + 1 - s.reqTick[ci] + 1
		c.resp.record(float64(w1))
		if w1 > 1 {
			s.noteMiss(w1)
		}
		c.resp.hits += uint64(n) - 1
		if s.hist != nil {
			s.hist.Add(uint64(w1))
			s.hist.AddN(1, uint64(n)-1)
		}
		// Only the stretch's first serve gap can grow maxGap: after it,
		// maxGap >= 1 and every later in-stretch gap is exactly 1.
		if gap := t0 + 1 - c.lastServe; gap > c.maxGap {
			c.maxGap = gap
		}
		c.lastServe = tEnd
		s.pos[ci] += int(n)
		if s.pos[ci] == len(s.traces[ci]) {
			c.done = true
			c.completion = tEnd
			s.doneN++
			finished = true
			if n > 1 {
				// The serve at tEnd-1 set reqTick to tEnd; the final serve
				// leaves it there (for n == 1 it stays untouched), matching
				// the slow path byte-for-byte in snapshots.
				s.reqTick[ci] = tEnd
			}
		} else {
			s.reqTick[ci] = tEnd + 1
		}
	}
	if finished {
		dst := s.active[:0]
		for _, ci := range s.active {
			if !s.cores[ci].done {
				dst = append(dst, ci)
			}
		}
		s.active = dst
	}

	s.tick = tEnd
	if tEnd > s.makespan {
		s.makespan = tEnd
	}
	s.queueTicks += uint64(n) // queue depth is 0 on every stretch tick
	s.led.QueueDepth.Buckets[0] += uint64(n)
	s.ffTicks += uint64(n)
	s.ffStretches++
}

// orig translates a dense internal page ID back to the caller's original
// PageID at the Observer boundary; the identity when no compaction was
// needed (or the simulator runs uncompacted for differential testing).
func (s *Sim) orig(p model.PageID) model.PageID {
	if s.origOf == nil {
		return p
	}
	return s.origOf[p]
}

// serve records the serve of core ci's current reference at tick t and
// advances the core, reporting whether the core has references left.
func (s *Sim) serve(ci model.CoreID, t model.Tick) bool {
	c := &s.cores[ci]
	r := t - s.reqTick[ci] + 1
	c.resp.record(float64(r))
	if r > 1 {
		s.noteMiss(r)
	}
	if s.obs != nil {
		s.obs.OnServe(ci, s.orig(s.traces[ci][s.pos[ci]]), t, r)
	}
	if gap := t - c.lastServe; gap > c.maxGap {
		c.maxGap = gap
	}
	c.lastServe = t
	if s.hist != nil {
		s.hist.Add(uint64(r))
	}
	if t > s.makespan {
		s.makespan = t
	}
	s.pos[ci]++
	if s.pos[ci] == len(s.traces[ci]) {
		c.done = true
		c.completion = t
		s.doneN++
		return false
	}
	s.reqTick[ci] = t + 1
	return true
}

// Result summarises the run so far. It is typically called once Step has
// returned false.
func (s *Sim) Result() *Result {
	s.settle()
	res := &Result{
		Makespan:  s.makespan,
		Fetches:   s.fetches,
		Evictions: s.evictions,
		Remaps:    s.remaps,
		PerCore:   make([]CoreResult, len(s.cores)),
		Hist:      s.hist,
		Truncated: s.truncd,
	}
	var all stats.Welford
	for i := range s.cores {
		c := &s.cores[i]
		w := c.resp.finalize()
		all.Merge(w)
		res.Hits += c.resp.hits
		res.PerCore[i] = CoreResult{
			Refs:         w.N(),
			Hits:         c.resp.hits,
			Completion:   c.completion,
			ResponseMean: w.Mean(),
			ResponseMax:  w.Max(),
			MaxServeGap:  c.maxGap,
		}
		if c.maxGap > res.MaxServeGap {
			res.MaxServeGap = c.maxGap
		}
	}
	res.TotalRefs = all.N()
	res.Misses = res.TotalRefs - res.Hits
	res.ResponseMean = all.Mean()
	res.Inconsistency = all.StddevPop()
	res.ResponseMax = all.Max()
	if s.queueTicks > 0 {
		res.AvgQueueLen = float64(s.queueSum) / float64(s.queueTicks)
	}
	if s.makespan > 0 {
		res.ChannelUtilization = float64(s.fetches) / (float64(s.cfg.Channels) * float64(s.makespan))
	}
	return res
}

// Err returns a *TruncatedError, naming the tick cap and the cores left
// unfinished, once the run has hit its tick cap; otherwise nil.
func (s *Sim) Err() error {
	if !s.truncd {
		return nil
	}
	return &TruncatedError{Ticks: s.capT, Unfinished: len(s.cores) - s.doneN}
}

// Run builds a simulator and executes it to completion, returning its
// Result. When the tick cap is hit, the partial Result is returned together
// with a *TruncatedError.
func Run(cfg Config, traces [][]model.PageID) (*Result, error) {
	s, err := New(cfg, traces)
	if err != nil {
		return nil, err
	}
	for s.Step() {
	}
	return s.Result(), s.Err()
}
