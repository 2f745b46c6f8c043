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
// cruise-start scan stream flat arrays instead of striding through
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

	store hbm.Store
	// resident mirrors the store's residency over the dense pages, so
	// Step reads it without a call into the store: land sets a page,
	// evicted clears it, and Resume rebuilds it from the loaded store.
	resident []bool
	arb      arbiter.Arbiter
	perm     arbiter.Permuter
	pri      []int32
	seq      uint64
	tick     model.Tick
	capT     model.Tick
	doneN    int
	truncd   bool

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
	// universe is the dense page-ID universe size U from compaction.
	universe int

	// noFF selects per-tick stepping, with no cruising: set by
	// differential tests that pin cruising against it.
	noFF bool
	// touchNop records that store.Touch is a no-op for this configuration
	// (direct-mapped stores, FIFO and Random replacement), so cruises
	// defer no touches.
	touchNop bool
	// boundary is the caller's observation cadence (SetBoundary): Step
	// never jumps across a multiple of it.
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
	// invalidation is skipped entirely while it is zero, so runs that
	// never cruise pay one branch per eviction, not three scattered
	// loads.
	scansLive int

	// Ticks skipped by a cruising run's jumps, and the jumps (see
	// Counters).
	ffTicks     uint64
	ffStretches uint64

	// metrics
	makespan  model.Tick
	fetches   uint64
	evictions uint64
	remaps    uint64
	// queueSum/queueTicks accumulate the end-of-tick DRAM-queue depth as
	// exact integers (AvgQueueLen = queueSum/queueTicks), so a jump can
	// fold a stretch of zero-depth samples in O(1) with bit-identical
	// results.
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
// reference mutually disjoint page sets, and New refuses a workload in
// which two cores share a page, with an error naming the page and both
// cores, as trace.Workload.Validate words it.
//
// New first compacts the workload's page IDs into the dense space
// [0, U) (see compactTraces), so the store and replacement policy index
// flat slices instead of hashing sparse 64-bit IDs on every tick. On a
// workload already numbered that way, as trace.NewWorkload and the
// generators number it, that is one pass over the references, split
// across cores, which also proves the traces disjoint.
// Observers always see the original PageIDs: dense IDs are translated
// back at the event boundary, and Results carry no page IDs at all.
func New(cfg Config, traces [][]model.PageID) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(len(traces)); err != nil {
		return nil, err
	}
	traces, origOf, ranges, err := compactTraces(traces)
	if err != nil {
		return nil, err
	}
	universe := int(ranges[len(ranges)-1].hi)
	var store hbm.Store
	if cfg.Mapping == MappingDirect {
		dm, err := hbm.NewDenseDirectMapped(cfg.HBMSlots, cfg.Seed+4, universe, origOf)
		if err != nil {
			return nil, err
		}
		store = dm
	} else {
		var pol replacement.Policy
		if cfg.Replacement == replacement.Belady {
			// The clairvoyant offline baseline needs the workload's
			// future; wire the traces through here.
			pol = replacement.NewBeladyDense(traces, universe)
		} else {
			var err error
			pol, err = replacement.NewDense(cfg.Replacement, universe, cfg.Seed+1)
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
	p, u := len(traces), universe
	// Same-typed per-core arrays share one backing allocation each (the
	// three-index caps keep a future append from clobbering the sibling);
	// construction stays a handful of allocations even with the
	// cruise-start scan caches.
	intBuf := make([]int, 3*p)
	boolBuf := make([]bool, 2*p+u)
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
		scanMiss:   boolBuf[p : 2*p : 2*p],
		resident:   boolBuf[2*p:],
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
	for i, tr := range traces {
		s.pri[i] = int32(i)
		if len(tr) == 0 {
			s.cores[i].done = true
			s.doneN++
		} else {
			s.reqTick[i] = 1
			s.active = append(s.active, model.CoreID(i))
		}
	}
	s.capT = tickCap(cfg, traces)
	s.ownerOf = i32Buf[p:]
	for ci, r := range ranges {
		for pg := r.lo; pg < r.hi; pg++ {
			s.ownerOf[pg] = int32(ci)
		}
	}
	u64Buf := make([]uint64, u+p)
	s.pageGen = u64Buf[:u:u]
	s.scanGen = u64Buf[u : u+p : u+p]
	// Touch is a no-op exactly when no recency or clairvoyant state
	// exists to update: direct-mapped slots, FIFO insertion order,
	// Random's uniform victims. LRU, CLOCK, and Belady all observe
	// touches, so cruises defer them.
	s.touchNop = cfg.Mapping == MappingDirect ||
		cfg.Replacement == replacement.FIFO || cfg.Replacement == replacement.Random
	s.initCruise(intBuf[2*p:], tickBuf[p:])
	return s, nil
}

// tickCap returns cfg.MaxTicks, or when it is zero the automatic cap New
// and RunReference both truncate a run at.
func tickCap(cfg Config, traces [][]model.PageID) model.Tick {
	if cfg.MaxTicks != 0 {
		return cfg.MaxTicks
	}
	var total uint64
	for _, tr := range traces {
		total += uint64(len(tr))
	}
	refs := model.Tick(total + 1)
	// Generous automatic cap: under unit fetch latency legitimate
	// makespans are bounded by roughly 2x the total reference count
	// (every tick either serves or fetches when work remains); the slack
	// absorbs small-k edge behaviour while still halting eviction
	// livelocks (possible when k is within q of the working set, see
	// DESIGN.md §4). Every miss beyond that costs up to its backend's
	// transfer time past one tick (membackend.MissSlack).
	perMiss := model.Tick(membackend.MissSlack(cfg.Backend, cfg.FetchLatency))
	return 8*refs + 1024*model.Tick(len(traces)+cfg.HBMSlots+cfg.Channels) + perMiss*refs
}

// Tick returns the current simulation tick. A Step that jumps a stretch
// of quiet ticks (see Step) advances the tick by the whole stretch, so
// the tick count can exceed the number of Step calls.
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
// jump across a tick that is a positive multiple of every (landing
// exactly on one is allowed), so a caller that polls
// Tick()%every == 0 between Steps — a checkpoint writer, a progress
// poller — observes exactly the boundary ticks it would under
// single-tick stepping. Zero (the default) removes the constraint.
func (s *Sim) SetBoundary(every model.Tick) { s.boundary = every }

// FastForwardedTicks returns the ticks a cruising run jumped: the
// ledger's FFTicks (see Counters), counted from New or Resume.
func (s *Sim) FastForwardedTicks() uint64 { return s.ffTicks }

// FastForwardedStretches returns the number of a cruising run's jumps:
// the ledger's FFStretches.
func (s *Sim) FastForwardedStretches() uint64 { return s.ffStretches }

// CruisedServes returns the serves folded by cruising cores rather than
// stepped one by one: the ledger's Cruised, counted from New or Resume.
func (s *Sim) CruisedServes() uint64 { return s.cruised + s.cruisedSoFar() }

// Step advances the simulation and reports whether it should continue
// (false once all cores are done or the tick cap is hit). One call
// normally executes one tick of the five steps, but a component with
// nothing due costs nothing. A core whose next references are verified
// resident cruises (see cruise.go): each tick then handles only the
// cores something happens to, and a tick with no active core and an
// empty queue jumps to the next cruise end. Results and snapshots are
// bit-identical to per-tick stepping, and so is an attached observer's
// event stream: cruising cores' serves and jumped ticks are emitted as
// per-tick stepping emits them.
func (s *Sim) Step() bool {
	if s.Done() || s.truncd || s.tick >= s.capT {
		s.truncd = !s.Done() // true once the tick cap is hit
		s.pushCounters(true)
		return false
	}

	// Quiet ticks. With no active core and an empty queue, residency is
	// static until the next cruise end (step 2 queues nothing, step 3
	// evicts nothing, step 5 grants nothing), so a cruising run jumps
	// there. Transfers may be in flight (a slow backend can hold them for
	// many ticks while the cruises go on); the jump then ends strictly
	// before the backend's NextEventTick, so the landing tick itself runs
	// the five steps (see quietLimit).
	if s.cruise {
		if s.noFF {
			s.stopCruising()
		} else if len(s.active) == 0 && s.arb.Len() == 0 {
			if n := s.jumpLen(); n > 0 {
				s.jump(n)
				return s.more()
			}
		}
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
	//
	// Step 4: serve every candidate whose page survived step 3.
	//
	// Cruising (see cruise.go) bounds the recency logs first, and its step
	// 3 flushes the cruises' deferred touches when a victim has one; its
	// step 4 records each eager touch's recency key, emits the cruising
	// cores' serves to an event observer in core order with the eager
	// ones, and starts a cruise for a served core whose next references
	// are verified resident instead of keeping it active. Then the
	// cruises due by t end, and the probe decides once.
	need := s.backend.DueAt(t, s.arb.Len())
	s.nextActive = s.nextActive[:0]
	if s.cruise {
		s.trimLogs(t)
		s.evictCruising(need, t)
	} else {
		for _, pg := range s.store.EnsureRoom(need) {
			s.evicted(pg, t, t)
		}
	}
	// next is the first core whose cruising serve at t is not yet emitted.
	next, observed := model.CoreID(0), s.obs != nil && s.nCruising > 0
	for _, ci := range s.candidates {
		if observed {
			s.emitCruising(next, ci, t)
			next = ci + 1
		}
		page := s.traces[ci][s.pos[ci]]
		if !s.resident[page] {
			// Evicted at step 3; the core re-requests on the next tick (as
			// in the reference loop, where step 2 of the next tick
			// re-queues it). Response time keeps accruing.
			s.nextActive = append(s.nextActive, ci)
			continue
		}
		s.store.Touch(page)
		if s.keyed {
			s.noteEager(page, s.key(t, int(ci)))
		}
		if s.serve(ci, t) && !(s.cruise && s.startCruise(ci, t)) {
			s.nextActive = append(s.nextActive, ci)
		}
	}
	if observed {
		s.emitCruising(next, model.CoreID(len(s.cores)), t)
	}
	tail := len(s.nextActive) // nextActive[:tail], step 4's requeues and serves, ascends
	if s.cruise {
		s.endCruises(t)
		if !s.decided && s.attempts >= cruiseProbe {
			s.decide()
		}
	}

	// Step 5: grant queued requests a far channel — as many as the
	// backend admits this tick (the reference model's q; a bandwidth
	// backend only offers its free channels) — then land every transfer
	// the backend completes now (immediately, for the model's unit
	// latency).
	granted := s.grant(t)
	s.land(t)

	s.endTick(t, granted)
	s.rebuildActive(tail)
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
		if s.resident[page] {
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
	s.resident[pg] = false
	s.invalidateScan(pg)
	if s.cruise {
		s.cut(pg, next)
	}
	if s.obs != nil {
		s.obs.OnEvict(s.orig(pg), t)
	}
	if s.wbSink != nil {
		s.wbSink.Writeback(t, pg)
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
		s.resident[a.Page] = true
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
			// force a fresh rescan on the core's next cruise attempt.
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

// quietLimit bounds, at lim, the quiet ticks a cruising run may jump
// from the current tick: never past the tick cap, never onto the
// backend's next transfer completion (the landing tick evicts, inserts
// and emits events) or a remap tick (so the permuter's rng stream and
// OnRemap events fire on their exact ticks), and never across a multiple
// of the caller's observation boundary (landing on one is allowed).
func (s *Sim) quietLimit(lim model.Tick) model.Tick {
	t0 := s.tick
	if d := s.capT - t0; d < lim {
		lim = d
	}
	if ne := s.backend.NextEventTick(); ne != 0 {
		if ne <= t0+1 {
			return 0
		}
		if d := ne - t0 - 1; d < lim {
			lim = d
		}
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
	return lim
}

// skip advances the clock over n skipped ticks, on each of which the
// queue is empty and nothing is granted.
func (s *Sim) skip(n model.Tick) {
	s.tick += n
	s.queueTicks += uint64(n)
	s.led.QueueDepth.Buckets[0] += uint64(n)
	s.ffTicks += uint64(n)
	s.ffStretches++
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
				if !s.resident[pg] {
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
		// No core holds a live cache: nothing to stale.
		return
	}
	o := s.ownerOf[pg]
	if s.scanTo[o] >= 0 && s.pageGen[pg] == s.scanGen[o] {
		s.scanTo[o] = -1
		s.scansLive--
	}
}

// orig translates a dense internal page ID back to the caller's original
// PageID at the Observer boundary; the identity when no compaction was
// needed.
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

// hits folds core ci's n serves on ticks T-n+1 through T, each a
// unit-response hit, as the per-tick serves would record them, and
// reports whether the core has references left. n must be positive.
func (s *Sim) hits(ci model.CoreID, n, T model.Tick) bool {
	c := &s.cores[ci]
	c.resp.hits += uint64(n)
	if s.hist != nil {
		s.hist.AddN(1, uint64(n))
	}
	// The serve before the first of them left maxGap at 1 or more, and
	// every gap between them is 1.
	c.lastServe = T
	if T > s.makespan {
		s.makespan = T
	}
	s.pos[ci] += int(n)
	if s.pos[ci] == len(s.traces[ci]) {
		// The serve at T-1 set reqTick to T; the final serve leaves it.
		c.done = true
		c.completion = T
		s.doneN++
		s.reqTick[ci] = T
		return false
	}
	s.reqTick[ci] = T + 1
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
