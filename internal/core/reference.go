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

// arrival is a granted fetch travelling down the naive loop's far
// channel (the paper's model, hard-wired — RunReference predates the
// membackend interface on purpose: it is the spec the reference backend
// is pinned against).
type arrival struct {
	core model.CoreID
	page model.PageID
	land model.Tick
}

// RunReference executes the same simulation as Run with a deliberately
// naive implementation: every tick walks every core through the five steps
// of §3.1 verbatim over the map-based store and policies on the caller's
// page IDs, with no compaction and no event-driven bookkeeping. It exists
// as the executable specification — Run's optimised active-set simulator
// must produce bit-identical Results and, to an attached observer, the
// same event stream (see TestReferenceEquivalence and
// TestCompactedEventStreamEquivalence) — and is O(p) per tick, so use Run
// for real work. obs (nil for none) receives every event a Sim emits to
// an event observer. Only the paper's memory model is implemented:
// configs selecting another backend are rejected.
func RunReference(cfg Config, traces [][]model.PageID, obs Observer) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(len(traces)); err != nil {
		return nil, err
	}
	if k := cfg.Backend.WithDefaults().Kind; k != membackend.Reference {
		return nil, fmt.Errorf("core: RunReference implements only the reference backend, not %q", k)
	}
	// Shared pages are refused with New's error; the renumbering the scan
	// may make is discarded.
	if _, _, _, err := compactTraces(traces); err != nil {
		return nil, err
	}
	if obs == nil {
		obs = NopObserver{}
	}
	var store hbm.Store
	if cfg.Mapping == MappingDirect {
		dm, err := hbm.NewDirectMapped(cfg.HBMSlots, cfg.Seed+4)
		if err != nil {
			return nil, err
		}
		store = dm
	} else {
		var pol replacement.Policy
		if cfg.Replacement == replacement.Belady {
			pol = replacement.NewBelady(traces)
		} else {
			var err error
			pol, err = replacement.New(cfg.Replacement, cfg.Seed+1)
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

	type refCore struct {
		pos        int
		reqTick    model.Tick
		queued     bool
		done       bool
		resp       respAcc
		completion model.Tick
		lastServe  model.Tick
		maxGap     model.Tick
	}
	cores := make([]refCore, len(traces))
	pri := make([]int32, len(traces))
	priOld := make([]int32, len(traces))
	doneN := 0
	for i, tr := range traces {
		pri[i] = int32(i)
		cores[i].reqTick = 1
		if len(tr) == 0 {
			cores[i].done = true
			doneN++
		}
	}
	capT := tickCap(cfg, traces)

	var hist *stats.Histogram
	if cfg.CollectHistogram {
		hist = &stats.Histogram{}
	}
	var (
		t         model.Tick
		seq       uint64
		makespan  model.Tick
		fetches   uint64
		evictions uint64
		remaps    uint64
		inflight  []arrival
		truncated bool
		// Exact integer queue-depth accumulation, mirroring Sim: the two
		// implementations must agree bit-for-bit, and a streaming float
		// mean would diverge from the zero-depth samples Sim folds per jump.
		queueSum   uint64
		queueTicks uint64
	)

	for doneN < len(cores) {
		if t >= capT {
			truncated = true
			break
		}
		t++

		// Step 1: remap.
		if cfg.RemapPeriod > 0 && t%cfg.RemapPeriod == 0 {
			copy(priOld, pri)
			perm.Permute(pri)
			arb.UpdatePriorities(pri)
			remaps++
			obs.OnRemap(t, priOld, pri)
		}

		// Step 2: every waiting core whose page is absent queues it.
		for i := range cores {
			c := &cores[i]
			if c.done || c.queued {
				continue
			}
			page := traces[i][c.pos]
			if !store.Contains(page) {
				seq++
				arb.Push(model.Request{Core: model.CoreID(i), Page: page, Issued: c.reqTick, Seq: seq})
				c.queued = true
				obs.OnQueue(model.CoreID(i), page, t)
			}
		}

		// Step 3: make room for this tick's landings.
		var need int
		if cfg.FetchLatency == 1 {
			need = cfg.Channels
			if n := arb.Len(); n < need {
				need = n
			}
		} else {
			for _, a := range inflight {
				if a.land > t {
					break
				}
				need++
			}
		}
		for _, pg := range store.EnsureRoom(need) {
			evictions++
			obs.OnEvict(pg, t)
		}

		// Step 4: serve every core whose page is resident.
		for i := range cores {
			c := &cores[i]
			if c.done || c.queued {
				continue
			}
			page := traces[i][c.pos]
			if !store.Contains(page) {
				continue // evicted between steps 2 and 4; re-queues next tick
			}
			store.Touch(page)
			r := t - c.reqTick + 1
			c.resp.record(float64(r))
			obs.OnServe(model.CoreID(i), page, t, r)
			if gap := t - c.lastServe; gap > c.maxGap {
				c.maxGap = gap
			}
			c.lastServe = t
			if hist != nil {
				hist.Add(uint64(r))
			}
			c.pos++
			if c.pos == len(traces[i]) {
				c.done = true
				c.completion = t
				doneN++
			} else {
				c.reqTick = t + 1
			}
			if t > makespan {
				makespan = t
			}
		}

		// Step 5: grant channels, then land due transfers.
		granted := 0
		for ; granted < cfg.Channels; granted++ {
			r, ok := arb.Pop()
			if !ok {
				break
			}
			obs.OnGrant(r.Core, r.Page, t, t-r.Issued)
			inflight = append(inflight, arrival{
				core: r.Core, page: r.Page,
				land: t + model.Tick(cfg.FetchLatency) - 1,
			})
		}
		landed := 0
		for _, a := range inflight {
			if a.land > t {
				break
			}
			landed++
			if victim, displaced, err := store.Insert(a.page); err != nil {
				panic(fmt.Sprintf("core: reference fetch failed at tick %d: %v", t, err))
			} else if displaced {
				evictions++
				obs.OnEvict(victim, t)
			}
			fetches++
			obs.OnFetch(a.core, a.page, t)
			cores[a.core].queued = false
		}
		if landed > 0 {
			inflight = inflight[landed:]
		}
		queueSum += uint64(arb.Len())
		queueTicks++
		obs.OnTickEnd(t, arb.Len(), granted)
	}

	res := &Result{
		Makespan:  makespan,
		Fetches:   fetches,
		Evictions: evictions,
		Remaps:    remaps,
		PerCore:   make([]CoreResult, len(cores)),
		Hist:      hist,
		Truncated: truncated,
	}
	var all stats.Welford
	for i := range cores {
		c := &cores[i]
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
	if queueTicks > 0 {
		res.AvgQueueLen = float64(queueSum) / float64(queueTicks)
	}
	if makespan > 0 {
		res.ChannelUtilization = float64(fetches) / (float64(cfg.Channels) * float64(makespan))
	}
	if truncated {
		return res, &TruncatedError{Ticks: capT, Unfinished: len(cores) - doneN}
	}
	return res, nil
}
