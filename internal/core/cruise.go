package core

import (
	"cmp"
	"math"
	"slices"

	"hbmsim/internal/hbm"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// Cruising is fast-forward's empty-queue condition relaxed from the
// whole machine to one core. A core whose next references are verified
// resident after a serve (the scan cache behind hitRun) cruises: it
// leaves the active list, its cursor becomes implicit (pos plus the
// ticks since the cruise began), its serves fold as unit hits in closed
// form, and it rejoins on the tick its verified run ends or an eviction
// cuts it. A tick then processes only remaps, queueing cores, grants,
// landings, evictions and the cores those touch, in the per-tick step
// and core-index order; a tick with no active core, an empty queue and
// nothing due jumps to the next cruise end, remap, boundary or cap.
//
// Results, snapshots and the ledger stay bit-identical to per-tick
// stepping because:
//
//   - Cut: ownership is disjoint (ownerOf), so an evicted page has one
//     owner to check. If the page lies ahead of a cruising owner's
//     cursor the cruise ends just before it; if it is the owner's
//     current reference the core is not served this tick (step 4's
//     recheck). A page the owner's scan did not stamp is not in its
//     window, so most victims cost one comparison.
//   - Deferred recency: cruising cores do not touch the replacement
//     policy. Under LRU every eager touch and insert records its (tick,
//     step, index) key; the stale list head is the true victim unless it
//     has a deferred touch since the last flush, because a deferred
//     touch only moves a page towards MRU. Only then does flush merge
//     the deferred touches into the eagerly touched tail by key. CLOCK
//     sets the reference bits of all deferred touches before its hand
//     moves (bits do not depend on order); FIFO, Random and direct-mapped
//     stores ignore touches.
//   - Settle on read: Result and Checkpoint fold every cruise as of the
//     current tick first, and Checkpoint also flushes; Remaining and the
//     ledger count the implicit cursors without changing state.
//
// Belady (whose clairvoyant cursors advance per touch) and runs with an
// event observer attached keep the per-tick path and fastForward, and so
// does a run whose cruises turn out too short to pay (see decide).
type cruiseState struct {
	// cruise is set while cruising is engaged; decided once the
	// engagement check has run (or an event observer disengaged it).
	cruise, decided bool

	// Per core: a cruising core c has cStart[c] > 0. Its first cruised
	// serve falls on tick cStart[c], its cursor pos[c] stays where the
	// cruise began, and it is served every tick through cEnd[c]. Its
	// deferred touches before trace position cMat[c] are materialised.
	cStart, cEnd []model.Tick
	cMat         []int
	nCruising    int
	// ends is a min-heap of scheduled cruise ends; an entry is stale once
	// its core's cruise ended or was cut to an earlier tick.
	ends []cruiseEnd

	// Deferred LRU recency (keyed is set for LRU only). A list operation
	// at tick t has key 2*(t*stride + sub) + d, where sub is the core
	// index for a step-4 touch and cores + i for the i-th step-5 insert,
	// and d is 1 for a deferred touch. last is each page's latest key,
	// eager or materialised; deferred keys at or above fk are not yet in
	// the list. elog holds the eager operations since the last flush,
	// pend the materialised deferred touches.
	keyed      bool
	assoc      *hbm.Assoc
	rec        replacement.Recency
	stride     uint64
	last       []uint64
	fk         uint64
	elog, pend []keyedPage
	// Scratch of sortPending.
	cnt    []int32
	sorted []keyedPage

	// Serves folded by cruises (see Counters.Cruised), cruises ended,
	// cruise starts attempted (the engagement probe's clock), and
	// flushes that relinked the list.
	cruised, cruises, attempts, flushes uint64
}

// cruiseEnd schedules the end of core c's cruise after tick t.
type cruiseEnd struct {
	t model.Tick
	c model.CoreID
}

// keyedPage is one list operation on page, ordered by key.
type keyedPage struct {
	key  uint64
	page model.PageID
}

// Cruise tuning, in the style of ffPayoff/ffHoldTicks. A cruise costs a
// scan, a heap entry and a fold, a few hundred ns, so verified runs
// shorter than cruiseMinRun are served per tick; runs are scanned at
// most cruiseMaxRun references ahead, which bounds the rescan a cut
// wastes. After cruiseProbe attempted starts the run keeps cruising
// only if it cruised cruisePayoff serves per attempt (see decide). Once the logs hold flushBacklog entries per core, superseded
// entries are dropped, and a flush is forced if that frees less than
// half, which bounds the logs.
const (
	cruiseMinRun = 4
	cruiseMaxRun = 1024
	cruiseProbe  = 2048
	cruisePayoff = 9
	flushBacklog = 64
)

// initCruise engages cruising when the configuration allows it (not
// Belady, and recency keys that fit in 64 bits), on per-core storage New
// allocated with its own: p ints and 2p ticks. The LRU state is
// allocated apart, so a run that stops cruising can drop it.
func (s *Sim) initCruise(ints []int, ticks []model.Tick) {
	if s.cfg.Mapping != MappingDirect && s.cfg.Replacement == replacement.Belady {
		return
	}
	p := len(s.cores)
	s.stride = uint64(p + s.backend.MaxInFlight() + 1)
	if uint64(s.capT) >= math.MaxUint64/(2*s.stride)-2 {
		return
	}
	s.cMat = ints
	s.cStart, s.cEnd = ticks[:p:p], ticks[p:]
	s.ends = make([]cruiseEnd, 0, 2*p)
	if as, ok := s.store.(*hbm.Assoc); ok {
		s.assoc = as
		if s.cfg.Replacement == replacement.LRU {
			s.rec = as.Recency()
			s.keyed = true
			s.last = make([]uint64, s.universe)
			s.fk = 1
			// The logs and the sort's scratch share one allocation, with
			// room for the backlog and what one tick adds to it; the
			// counting sort's buckets number at most four per entry.
			c := flushBacklog*p + cruiseMaxRun
			logs := make([]keyedPage, 3*c)
			s.elog, s.pend, s.sorted = logs[:0:c], logs[c:c:2*c], logs[2*c:2*c]
			s.cnt = make([]int32, 4*c+66)
		}
	}
	s.cruise = true
}

// key returns the recency key of an eager list operation at tick t;
// a deferred touch's key is one more.
func (s *Sim) key(t model.Tick, sub int) uint64 { return 2 * (uint64(t)*s.stride + uint64(sub)) }

// stepCruise is Step while cruising is engaged: the per-tick steps over
// the active cores only, with cruising cores implicit.
func (s *Sim) stepCruise() bool {
	if len(s.active) == 0 && s.arb.Len() == 0 {
		if n := s.jumpLen(); n > 0 {
			s.jump(n)
			return s.more()
		}
	}
	s.tick++
	t := s.tick
	if s.cfg.RemapPeriod > 0 && t%s.cfg.RemapPeriod == 0 {
		s.remap(t)
	}

	s.request(t)

	// Step 3.
	evictedAny := s.evictCruising(s.backend.DueAt(t, s.arb.Len()), t)

	// Step 4: serve the candidates; a served core whose next references
	// are verified resident starts a cruise instead of staying active.
	s.nextActive = s.nextActive[:0]
	for _, ci := range s.candidates {
		page := s.traces[ci][s.pos[ci]]
		if evictedAny && !s.store.Contains(page) {
			s.nextActive = append(s.nextActive, ci)
			continue
		}
		s.store.Touch(page)
		if s.keyed {
			s.noteEager(page, s.key(t, int(ci)))
		}
		if s.serve(ci, t) && !s.startCruise(ci, t) {
			s.nextActive = append(s.nextActive, ci)
		}
	}

	// Step 5.
	granted := s.grant(t)
	landStart := len(s.nextActive)
	s.land(t)

	s.endTick(t, granted)
	s.endCruises(t)
	s.rebuildActive(landStart)
	if backlog := flushBacklog * len(s.cores); len(s.elog)+len(s.pend) > backlog {
		if s.compactLogs(); len(s.elog)+len(s.pend) > backlog/2 {
			s.flush(t + 1)
		}
	}
	if !s.decided && s.attempts >= cruiseProbe {
		s.decide()
	}
	return s.more()
}

// compactLogs drops the log entries a later operation on the same page
// has superseded; flush would skip them.
func (s *Sim) compactLogs() {
	e := s.elog[:0]
	for _, x := range s.elog {
		if x.key == s.last[x.page] {
			e = append(e, x)
		}
	}
	d := s.pend[:0]
	for _, x := range s.pend {
		if x.key == s.last[x.page] {
			d = append(d, x)
		}
	}
	s.elog, s.pend = e, d
}

// noteEager records an eager LRU operation on page with key k.
func (s *Sim) noteEager(page model.PageID, k uint64) {
	s.last[page] = k
	s.elog = append(s.elog, keyedPage{k, page})
}

// evictCruising is step 3 with deferred recency: under LRU it peeks at
// the list head before each eviction and flushes when the head has a
// deferred touch; under CLOCK it sets the deferred reference bits before
// the hand moves. Every victim runs the cut check.
func (s *Sim) evictCruising(need int, t model.Tick) bool {
	if s.keyed {
		evicted := false
		for n := need - s.assoc.Free(); n > 0; n-- {
			h, ok := s.rec.Head()
			if !ok {
				break
			}
			if s.pending(h, t) {
				s.flush(t)
			}
			pg, _ := s.assoc.Evict()
			s.evicted(pg, t, t)
			evicted = true
		}
		return evicted
	}
	if !s.touchNop && s.nCruising > 0 && need > s.assoc.Free() {
		s.flush(t)
	}
	ev := s.store.EnsureRoom(need)
	for _, pg := range ev {
		s.evicted(pg, t, t)
	}
	return len(ev) > 0
}

// cut ends the cruise of pg's owner just before its next reference to
// pg at or after the serve of tick next.
func (s *Sim) cut(pg model.PageID, next model.Tick) {
	o := model.CoreID(s.ownerOf[pg])
	ts := s.cStart[o]
	if ts == 0 {
		return
	}
	p0 := s.pos[o]
	j := s.findNext(o, pg, p0+int(next-ts), p0+int(s.cEnd[o]+1-ts))
	if j < 0 {
		return
	}
	te := ts + model.Tick(j-p0) - 1
	s.cEnd[o] = te
	s.pushEnd(te, o)
}

// pending reports whether page h, the LRU head at step 3 of tick t, has
// a deferred touch the list does not hold yet.
func (s *Sim) pending(h model.PageID, t model.Tick) bool {
	if k := s.last[h]; k >= s.fk && k&1 == 1 {
		return true
	}
	o := model.CoreID(s.ownerOf[h])
	ts := s.cStart[o]
	return ts != 0 && s.findNext(o, h, s.cMat[o], s.pos[o]+int(t-ts)) >= 0
}

// findNext returns the first position in [from, to), a range of core
// o's verified window, that references h, or -1. A page the window's
// scan did not stamp is not in it.
func (s *Sim) findNext(o model.CoreID, h model.PageID, from, to int) int {
	if from >= to || s.pageGen[h] != s.scanGen[o] {
		return -1
	}
	tr := s.traces[o]
	for j := from; j < to; j++ {
		if tr[j] == h {
			return j
		}
	}
	return -1
}

// startCruise starts a cruise for core ci, just served at tick t, when
// its verified run is long enough.
func (s *Sim) startCruise(ci model.CoreID, t model.Tick) bool {
	s.attempts++
	r := s.hitRun(ci, cruiseMaxRun)
	if r < cruiseMinRun {
		return false
	}
	s.cStart[ci] = t + 1
	s.cEnd[ci] = t + model.Tick(r)
	s.cMat[ci] = s.pos[ci]
	s.nCruising++
	s.pushEnd(s.cEnd[ci], ci)
	return true
}

// endCruises ends the cruises scheduled to end by tick t, appending the
// cores that rejoin to nextActive.
func (s *Sim) endCruises(t model.Tick) {
	for len(s.ends) > 0 && s.ends[0].t <= t {
		e := s.popEnd()
		if s.cStart[e.c] != 0 && s.cEnd[e.c] == e.t && s.endCruise(e.c, e.t) {
			s.nextActive = append(s.nextActive, e.c)
		}
	}
}

// endCruise ends core o's cruise after its serve at tick te and reports
// whether the core has references left.
func (s *Sim) endCruise(o model.CoreID, te model.Tick) bool {
	s.deferTo(o, te+1)
	s.fold(o, te)
	s.cStart[o] = 0
	s.nCruising--
	s.cruises++
	return !s.cores[o].done
}

// deferTo materialises core o's cruised touches at ticks before upTo:
// into the pending log under LRU, straight into the reference bits under
// CLOCK (no eviction has happened since they were due, or a flush would
// have set them).
func (s *Sim) deferTo(o model.CoreID, upTo model.Tick) {
	if s.touchNop {
		return
	}
	p0, ts := s.pos[o], s.cStart[o]
	end := p0 + int(upTo-ts)
	j := s.cMat[o]
	if j >= end {
		return
	}
	tr := s.traces[o]
	if s.keyed {
		// Only each page's last touch in the range moves it: walk
		// backwards and keep the first sighting, whose key is then the
		// page's largest (last holds no later key of this core's: the
		// core has not touched its pages eagerly since the range).
		k := s.key(ts+model.Tick(end-1-p0), int(o)) + 1
		for i := end - 1; i >= j; i-- {
			if pg := tr[i]; s.last[pg] < k {
				s.last[pg] = k
				s.pend = append(s.pend, keyedPage{k, pg})
			}
			k -= 2 * s.stride
		}
	} else {
		for ; j < end; j++ {
			s.store.Touch(tr[j])
		}
	}
	s.cMat[o] = end
}

// fold applies core o's cruised serves through tick T, as the per-tick
// serves would have, and restarts the cruise at T+1.
func (s *Sim) fold(o model.CoreID, T model.Tick) {
	ts := s.cStart[o]
	n := T + 1 - ts
	if n == 0 {
		return
	}
	c := &s.cores[o]
	c.resp.hits += uint64(n)
	if s.hist != nil {
		s.hist.AddN(1, uint64(n))
	}
	c.lastServe = T
	if T > s.makespan {
		s.makespan = T
	}
	s.cruised += uint64(n)
	s.pos[o] += int(n)
	s.cStart[o] = T + 1
	if s.pos[o] == len(s.traces[o]) {
		// The serve at T-1 (cruised, or the eager serve the cruise
		// started after) set reqTick to T; the final serve leaves it.
		c.done = true
		c.completion = T
		s.doneN++
		s.reqTick[o] = T
	} else {
		s.reqTick[o] = T + 1
	}
}

// flush materialises every deferred touch at ticks before upTo. Under
// LRU it then relinks the list into the order per-tick touching leaves:
// the deferred touches, in key order, merged into the tail of eager
// operations since the last flush (already in key order), each page at
// its last operation.
func (s *Sim) flush(upTo model.Tick) {
	for o, ts := range s.cStart {
		if ts != 0 {
			s.deferTo(model.CoreID(o), upTo)
		}
	}
	if !s.keyed {
		return
	}
	d := s.pend[:0]
	for _, e := range s.pend {
		if e.key == s.last[e.page] {
			d = append(d, e)
		}
	}
	if len(d) > 0 {
		d = s.sortPending(d, upTo)
		e := s.elog
		i := 0
		for i < len(e) && e[i].key < d[0].key {
			i++
		}
		// fastForward's touch scratch is free: it never runs while
		// cruising.
		if need := len(e) - i + len(d); cap(s.touchBuf) < need {
			s.touchBuf = make([]model.PageID, 0, max(need, 2*cap(s.touchBuf), 1024))
		}
		order := s.touchBuf[:0]
		for j := 0; i < len(e) || j < len(d); {
			if j == len(d) || i < len(e) && e[i].key < d[j].key {
				if x := e[i]; x.key == s.last[x.page] {
					order = append(order, x.page)
				}
				i++
			} else {
				order = append(order, d[j].page)
				j++
			}
		}
		s.rec.Relink(order)
		s.touchBuf = order
		s.flushes++
	}
	s.pend, s.elog = s.pend[:0], s.elog[:0]
	s.fk = s.key(upTo, 0)
}

// sortPending returns d, deferred touches at ticks from the last flush
// up to upTo, sorted by key: a counting sort on the tick, then an insertion pass
// for the core order within each tick (d holds one backwards run per
// core and cruise, so ticks shared by several cores are the only
// inversions left). A long gap since the last flush falls back to a
// comparison sort.
func (s *Sim) sortPending(d []keyedPage, upTo model.Tick) []keyedPage {
	per := 2 * s.stride // keys per tick
	lo := s.fk / per
	span := uint64(upTo) - lo + 1
	if span > 4*uint64(len(d))+64 {
		slices.SortFunc(d, func(a, b keyedPage) int { return cmp.Compare(a.key, b.key) })
		return d
	}
	if uint64(cap(s.cnt)) <= span {
		s.cnt = make([]int32, 2*span)
	}
	cnt := s.cnt[:span+1]
	clear(cnt)
	for _, e := range d {
		cnt[e.key/per-lo+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	out := append(s.sorted[:0], d...)
	for _, e := range d {
		b := e.key/per - lo
		out[cnt[b]] = e
		cnt[b]++
	}
	for i := 1; i < len(out); i++ {
		e := out[i]
		j := i - 1
		for j >= 0 && out[j].key > e.key {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = e
	}
	s.cnt, s.sorted = cnt, out
	return out
}

// settle folds every running cruise's serves through the current tick,
// leaving the per-core state of a per-tick run; the cruises go on from
// the next tick. It leaves deferred touches pending, which only the
// store's order shows: Checkpoint flushes them too.
func (s *Sim) settle() {
	if s.nCruising == 0 {
		return
	}
	for o, ts := range s.cStart {
		if ts != 0 {
			s.fold(model.CoreID(o), s.tick)
		}
	}
}

// disengage settles, flushes, ends every cruise and returns the run to
// the per-tick path for good.
func (s *Sim) disengage() {
	s.flush(s.tick + 1)
	s.settle()
	if s.nCruising > 0 {
		s.nextActive = append(s.nextActive[:0], s.active...)
		sorted := len(s.nextActive)
		for o, ts := range s.cStart {
			if ts != 0 {
				s.cStart[o] = 0
				s.nextActive = append(s.nextActive, model.CoreID(o))
			}
		}
		s.rebuildActive(sorted)
		s.nCruising = 0
	}
	s.ends = s.ends[:0]
	s.cruise, s.keyed, s.decided = false, false, true
	s.last, s.elog, s.pend, s.sorted, s.cnt = nil, nil, nil, nil, nil
}

// decide keeps cruising engaged only if the cruises so far paid: each
// attempt to start one scans ahead, and a served core whose run is too
// short attempts again on its next serve, so the serves cruised per
// attempt weigh what cruising saves against what it costs.
func (s *Sim) decide() {
	s.decided = true
	if s.cruised < cruisePayoff*s.attempts {
		s.disengage()
	}
}

// cruisedSoFar counts the serves running cruises have made but not yet
// folded.
func (s *Sim) cruisedSoFar() uint64 {
	if s.nCruising == 0 {
		return 0
	}
	var n uint64
	for _, ts := range s.cStart {
		if ts != 0 {
			n += uint64(s.tick + 1 - ts)
		}
	}
	return n
}

// activeSet returns the per-tick active set: the active cores and the
// cruising ones, in ascending order.
func (s *Sim) activeSet() []model.CoreID {
	if s.nCruising == 0 {
		return s.active
	}
	out := make([]model.CoreID, 0, len(s.active)+s.nCruising)
	i := 0
	for o, ts := range s.cStart {
		if ts == 0 {
			continue
		}
		c := model.CoreID(o)
		for i < len(s.active) && s.active[i] < c {
			out = append(out, s.active[i])
			i++
		}
		out = append(out, c)
	}
	return append(out, s.active[i:]...)
}

// jumpLen returns how many ticks a cruising run may jump from the
// current tick, with no active core and an empty queue: up to the next
// cruise end, and (as stretchLen) never onto a remap tick or a landing,
// across a boundary multiple or past the cap. Zero means the next tick
// executes.
func (s *Sim) jumpLen() model.Tick {
	te, ok := s.nextEnd()
	if !ok {
		return 0
	}
	t0 := s.tick
	lim := te - t0
	if d := s.capT - t0; d < lim {
		lim = d
	}
	if s.backend.InFlight() > 0 {
		ne := s.backend.NextEventTick(t0)
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

// jump executes n quiet ticks at once: the cruising cores serve, the
// queue stays empty, and the cruises due by the last of them end.
func (s *Sim) jump(n model.Tick) {
	s.tick += n
	s.queueTicks += uint64(n)
	s.led.QueueDepth.Buckets[0] += uint64(n)
	s.ffTicks += uint64(n)
	s.ffStretches++
	s.nextActive = s.nextActive[:0]
	s.endCruises(s.tick)
	s.rebuildActive(0)
}

// nextEnd returns the earliest scheduled cruise end, dropping stale
// entries.
func (s *Sim) nextEnd() (model.Tick, bool) {
	for len(s.ends) > 0 {
		if e := s.ends[0]; s.cStart[e.c] != 0 && s.cEnd[e.c] == e.t {
			return e.t, true
		}
		s.popEnd()
	}
	return 0, false
}

// pushEnd schedules a cruise end.
func (s *Sim) pushEnd(t model.Tick, c model.CoreID) {
	h := append(s.ends, cruiseEnd{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].t <= t {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = cruiseEnd{t, c}
	s.ends = h
}

// popEnd removes and returns the earliest scheduled cruise end.
func (s *Sim) popEnd() cruiseEnd {
	h := s.ends
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	if n := len(h); n > 0 {
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r].t < h[l].t {
				l = r
			}
			if last.t <= h[l].t {
				break
			}
			h[i] = h[l]
			i = l
		}
		h[i] = last
	}
	s.ends = h
	return top
}
