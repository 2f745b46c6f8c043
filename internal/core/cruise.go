package core

import (
	"cmp"
	"math"
	"slices"

	"hbmsim/internal/hbm"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// Cruising is how Step skips the serves that cannot miss. A core whose
// next references are verified resident after a serve (the scan cache
// behind hitRun) cruises: it leaves the active list, its cursor becomes
// implicit (pos plus the ticks since the cruise began), its serves fold
// as unit hits in closed form (hits), and it rejoins on the tick its
// verified run ends or an eviction cuts it. Each tick of Step then
// processes only remaps, queueing cores, grants, landings, evictions and
// the cores those touch, in the per-tick step and core-index order; a
// tick with no active core, an empty queue and nothing due jumps to the
// next cruise end, within quietLimit's bound: the next remap, landing or
// boundary, or the cap.
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
//     moves (bits do not depend on order). Belady's touch moves only the
//     owner's served count and the page's occurrence cursor, so a core's
//     deferred touches are applied in trace order before the next
//     eviction, as CLOCK's are; its insert reads only the landing core's
//     count, and that core is not cruising. FIFO, Random and
//     direct-mapped stores ignore touches.
//   - Settle on read: Result and Checkpoint fold every cruise as of the
//     current tick first, and Checkpoint also flushes; Remaining and the
//     ledger count the implicit cursors without changing state.
//   - Events: an attached event observer gets each cruising core's
//     serve at step 4, in core order with the eager serves
//     (emitCruising), and each jumped tick's serves and OnTickEnd (jump).
//     No other event can fall on a cruised serve or a jumped tick: a cut
//     ends a cruise before the evicted page's next reference, and
//     quietLimit stops a jump short of landings, remaps and boundaries.
//
// A run whose cruises turn out too short to pay steps every tick (see
// decide).
type cruiseState struct {
	// cruise is set while cruising is engaged; decided once the
	// engagement check has run.
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
	// at tick t has key 2*((t-epoch)*stride + sub) + d, where epoch is
	// the tick of the last flush (or of Resume), sub is the core index
	// for a step-4 touch and cores + i for the i-th step-5 insert, and d
	// is 1 for a deferred touch. last is each page's latest key since
	// the last flush, eager or materialised, and 0 for a page with none
	// (flush zeroes the pages in its logs); a materialised deferred key
	// is not in the list yet. elog holds the eager operations since the
	// last flush, pend the materialised deferred touches. trimLogs
	// flushes once a tick lies keyRoom ticks past the epoch, so keys fit
	// in 64 bits under any tick cap.
	keyed          bool
	assoc          *hbm.Assoc
	rec            replacement.Recency
	stride         uint64
	epoch, keyRoom model.Tick
	last           []uint64
	elog, pend     []keyedPage
	// Scratch of sortPending and of flush's relink.
	cnt    []int32
	sorted []keyedPage
	relink []model.PageID

	// Serves folded by cruises (see Counters.Cruised), and cruise starts
	// attempted (the engagement probe's clock).
	cruised, attempts uint64
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

// Cruise tuning. A cruise costs a scan, a heap entry and a fold, a few
// hundred ns, so verified runs shorter than cruiseMinRun are served per
// tick; runs are scanned at most cruiseMaxRun references ahead, which
// bounds the rescan a cut wastes. After cruiseProbe attempted starts the
// run keeps cruising only if it cruised cruisePayoff serves per attempt
// (see decide). Once the logs hold flushBacklog entries per core,
// superseded entries are dropped, and a flush is forced if that frees
// less than half, which bounds the logs (see trimLogs).
const (
	cruiseMinRun = 4
	cruiseMaxRun = 1024
	cruiseProbe  = 2048
	cruisePayoff = 9
	flushBacklog = 64
)

// initCruise engages cruising, on per-core storage New allocated with
// its own: p ints and 2p ticks. Under LRU it allocates the recency
// keys' state apart, so a run that stops cruising can drop it.
func (s *Sim) initCruise(ints []int, ticks []model.Tick) {
	p := len(s.cores)
	s.stride = uint64(p + s.backend.MaxInFlight() + 1)
	s.assoc, _ = s.store.(*hbm.Assoc)
	lru := s.assoc != nil && s.cfg.Replacement == replacement.LRU
	s.cMat = ints
	s.cStart, s.cEnd = ticks[:p:p], ticks[p:]
	s.ends = make([]cruiseEnd, 0, 2*p)
	if lru {
		s.rec = s.assoc.Recency()
		s.keyed = true
		// A key at epoch+T ticks is below 2*stride*(T+1), and one tick's
		// cruises end at most cruiseMaxRun ticks on. (New allocates
		// MaxInFlight transfers, so the stride stays far below the
		// 2^53 that would leave no room.)
		s.keyRoom = model.Tick(math.MaxUint64/(2*s.stride)) - cruiseMaxRun
		s.last = make([]uint64, s.universe)
		// The logs and the sort's scratch share one allocation, with
		// room for the backlog and what one tick adds to it; the
		// counting sort's buckets grow on the first flush that needs
		// them (sortPending).
		c := flushBacklog*p + cruiseMaxRun
		logs := make([]keyedPage, 3*c)
		s.elog, s.pend, s.sorted = logs[:0:c], logs[c:c:2*c], logs[2*c:2*c]
	}
	s.cruise = true
}

// key returns the recency key of an eager list operation at tick t;
// a deferred touch's key is one more.
func (s *Sim) key(t model.Tick, sub int) uint64 {
	return 2 * (uint64(t-s.epoch)*s.stride + uint64(sub))
}

// trimLogs bounds the recency logs and keys before tick t adds to them:
// keyRoom ticks past the epoch it flushes, which starts a new epoch at t;
// past flushBacklog entries per core it drops the superseded ones, and
// if that frees less than half, it flushes the touches deferred before t.
func (s *Sim) trimLogs(t model.Tick) {
	if !s.keyed {
		return
	}
	if t-s.epoch >= s.keyRoom {
		s.flush(t)
		return
	}
	backlog := flushBacklog * len(s.cores)
	if len(s.elog)+len(s.pend) <= backlog {
		return
	}
	s.elog, s.pend = s.live(s.elog), s.live(s.pend)
	if len(s.elog)+len(s.pend) > backlog/2 {
		s.flush(t)
	}
}

// live drops, in place, the log entries a later operation on the same
// page has superseded.
func (s *Sim) live(log []keyedPage) []keyedPage {
	out := log[:0]
	for _, x := range log {
		if x.key == s.last[x.page] {
			out = append(out, x)
		}
	}
	return out
}

// noteEager records an eager LRU operation on page with key k.
func (s *Sim) noteEager(page model.PageID, k uint64) {
	s.last[page] = k
	s.elog = append(s.elog, keyedPage{k, page})
}

// evictCruising is step 3 with deferred recency: under LRU it peeks at
// the list head before each eviction and flushes when the head has a
// deferred touch; under CLOCK and Belady it applies every deferred touch
// before the policy picks a victim. Every victim runs the cut check.
func (s *Sim) evictCruising(need int, t model.Tick) {
	if s.keyed {
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
		}
		return
	}
	if !s.touchNop && s.nCruising > 0 && need > s.assoc.Free() {
		s.flush(t)
	}
	for _, pg := range s.store.EnsureRoom(need) {
		s.evicted(pg, t, t)
	}
}

// cut ends the cruise of pg's owner just before its next reference to
// pg at or after the serve of tick next. Step ends the cruises due by
// the current tick after step 4, so a cut at step 5 (a direct-mapped
// displacement) that ends a cruise on the current tick ends it at once.
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
	if te == s.tick && next > te {
		if s.endCruise(o, te) {
			s.nextActive = append(s.nextActive, o)
		}
		return
	}
	s.cEnd[o] = te
	s.pushEnd(te, o)
}

// pending reports whether page h, the LRU head at step 3 of tick t, has
// a deferred touch the list does not hold yet: a materialised one since
// the last flush, or one its cruising owner has not materialised.
func (s *Sim) pending(h model.PageID, t model.Tick) bool {
	if s.last[h]&1 == 1 {
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
	return !s.cores[o].done
}

// deferTo materialises core o's cruised touches at ticks before upTo:
// into the pending log under LRU, straight into the policy in trace
// order under CLOCK and Belady (no eviction has happened since they were
// due, or a flush would have applied them).
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
	n := T + 1 - s.cStart[o]
	if n == 0 {
		return
	}
	s.cruised += uint64(n)
	s.cStart[o] = T + 1
	s.hits(o, n, T)
}

// flush materialises every deferred touch at ticks before upTo. Under
// LRU it then relinks the list into the order per-tick touching leaves:
// the deferred touches, in key order, merged into the tail of eager
// operations since the last flush (already in key order), each page at
// its last operation. It then clears the logged pages' keys, the only
// ones set since the last flush, and starts a new epoch at upTo.
func (s *Sim) flush(upTo model.Tick) {
	for o, ts := range s.cStart {
		if ts != 0 {
			s.deferTo(model.CoreID(o), upTo)
		}
	}
	if !s.keyed {
		return
	}
	if d := s.live(s.pend); len(d) > 0 {
		d = s.sortPending(d, upTo)
		e := s.elog
		i := 0
		for i < len(e) && e[i].key < d[0].key {
			i++
		}
		if need := len(e) - i + len(d); cap(s.relink) < need {
			s.relink = make([]model.PageID, 0, max(need, 2*cap(s.relink), 1024))
		}
		order := s.relink[:0]
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
		s.relink = order
	}
	for _, x := range s.elog {
		s.last[x.page] = 0
	}
	for _, x := range s.pend {
		s.last[x.page] = 0
	}
	s.pend, s.elog = s.pend[:0], s.elog[:0]
	s.epoch = upTo
}

// sortPending returns d, deferred touches at ticks from the epoch up to
// upTo, sorted by key: a counting sort on the tick since the epoch, then
// an insertion pass for the core order within each tick (d holds one
// backwards run per core and cruise, so ticks shared by several cores
// are the only inversions left). A long gap since the epoch falls back
// to a comparison sort.
func (s *Sim) sortPending(d []keyedPage, upTo model.Tick) []keyedPage {
	per := 2 * s.stride // keys per tick
	span := uint64(upTo-s.epoch) + 1
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
		cnt[e.key/per+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	out := append(s.sorted[:0], d...)
	for _, e := range d {
		b := e.key / per
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

// disengage settles and flushes every cruise and returns the run to
// the per-tick path for good. The cores that were cruising are appended
// to nextActive, for the caller's rebuildActive.
func (s *Sim) disengage() {
	s.flush(s.tick + 1)
	for o, ts := range s.cStart {
		if ts != 0 {
			s.fold(model.CoreID(o), s.tick)
			s.cStart[o] = 0
			s.nextActive = append(s.nextActive, model.CoreID(o))
		}
	}
	s.nCruising = 0
	s.ends = s.ends[:0]
	s.cruise, s.keyed, s.decided = false, false, true
	s.last, s.elog, s.pend, s.sorted, s.cnt, s.relink = nil, nil, nil, nil, nil, nil
}

// stopCruising disengages between ticks: the cores that were cruising
// rejoin the active set.
func (s *Sim) stopCruising() {
	s.nextActive = append(s.nextActive[:0], s.active...)
	s.disengage()
	s.rebuildActive(len(s.active))
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
// cruise end, within quietLimit's bound. Zero means the next tick
// executes.
func (s *Sim) jumpLen() model.Tick {
	te, ok := s.nextEnd()
	if !ok {
		return 0
	}
	return s.quietLimit(te - s.tick)
}

// jump executes n quiet ticks at once: the cruising cores serve, the
// queue stays empty, and the cruises due by the last of them end. An
// event observer gets each tick's serves in core order, then its
// OnTickEnd.
func (s *Sim) jump(n model.Tick) {
	if s.obs != nil {
		all := model.CoreID(len(s.cores))
		for t := s.tick + 1; t <= s.tick+n; t++ {
			s.emitCruising(0, all, t)
			s.obs.OnTickEnd(t, 0, 0)
		}
	}
	s.skip(n)
	s.nextActive = s.nextActive[:0]
	s.endCruises(s.tick)
	s.rebuildActive(0)
}

// emitCruising sends an event observer the serves at tick t of the
// cores in [from, to) that cruise on t, in core order. Step 4 calls it
// between its eager serves, so the events keep the per-tick order.
func (s *Sim) emitCruising(from, to model.CoreID, t model.Tick) {
	for c := from; c < to; c++ {
		if ts := s.cStart[c]; ts != 0 && ts <= t && t <= s.cEnd[c] {
			s.obs.OnServe(c, s.orig(s.traces[c][s.pos[c]+int(t-ts)]), t, 1)
		}
	}
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
