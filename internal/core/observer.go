package core

import "hbmsim/internal/model"

// Observer receives simulation events as they happen, letting callers
// build custom metrics (timelines, per-page heat maps, fairness indices,
// exportable traces) without forking the simulator. All callbacks run
// synchronously on the simulation goroutine in tick order; they must not
// retain slice arguments beyond the call and must be cheap, since they sit
// on the hot path. Observers never affect simulation results.
//
// Implementations that care about only a few events should embed
// NopObserver, which provides no-op defaults for the full surface and
// keeps them compiling when the surface grows.
type Observer interface {
	// OnQueue fires when a core's non-resident request enters the DRAM
	// queue (step 2 of the tick).
	OnQueue(core model.CoreID, page model.PageID, tick model.Tick)
	// OnGrant fires when the arbiter grants a queued request a far
	// channel (step 5). wait is the ticks the request spent queued,
	// measured from the tick the core first requested the page.
	OnGrant(core model.CoreID, page model.PageID, tick model.Tick, wait model.Tick)
	// OnServe fires when a core's current reference is served from HBM.
	// response is the reference's response time in ticks (1 for a hit).
	OnServe(core model.CoreID, page model.PageID, tick model.Tick, response model.Tick)
	// OnFetch fires when a far channel lands a page from DRAM into HBM.
	OnFetch(core model.CoreID, page model.PageID, tick model.Tick)
	// OnEvict fires when a page leaves HBM (replacement-policy eviction
	// or direct-mapped displacement).
	OnEvict(page model.PageID, tick model.Tick)
	// OnRemap fires when the priority permutation is re-drawn (step 1).
	// old and new hold the previous and current priority ranks indexed
	// by core; both slices are reused across calls and must be copied if
	// retained.
	OnRemap(tick model.Tick, old, new []int32)
	// OnTickEnd fires once at the end of every executed tick. queueDepth
	// is the DRAM-queue length after arbitration; channelsBusy is the
	// number of far-channel grants issued this tick (at most q).
	OnTickEnd(tick model.Tick, queueDepth, channelsBusy int)
}

// StretchObserver is an Observer that folds a fast-forwarded stretch in
// one call instead of receiving its per-tick events. Fast-forward batches
// contention-free stretches (see Sim.Step); with a StretchObserver
// attached, the stretch keeps its batched cost, while any other observer
// makes the simulator replay the stretch's events tick by tick. Which
// path runs follows from the attached observer's type alone.
//
// Observers that only count — the telemetry Meter — implement it; those
// that need every page or every tick's timestamp (event logs, traces,
// per-page heat, windowed series) do not. NopObserver deliberately does
// not, so embedding it never opts an observer into folding.
type StretchObserver interface {
	Observer
	// OnStretch stands in for the OnServe and OnTickEnd events of ticks
	// t0+1 .. t0+n. On each of those ticks every core in active is
	// served once, in ascending core order: active[i]'s first serve (at
	// tick t0+1) has response first[i], every later one has response 1.
	// Each tick ends with queue depth 0 and no grants, and no other event
	// fires. Both slices are reused across calls and must not be
	// retained.
	//
	// OnStretch reports whether it folded the stretch. It returns false,
	// having done nothing, when it cannot — a MultiObserver with a member
	// that is not a StretchObserver — and the simulator then replays the
	// stretch tick by tick. Leaf observers fold and return true.
	OnStretch(t0, n model.Tick, active []model.CoreID, first []model.Tick) bool
}

// NopObserver implements Observer with empty callbacks. Embed it to build
// observers that handle only a subset of the event surface.
type NopObserver struct{}

func (NopObserver) OnQueue(model.CoreID, model.PageID, model.Tick)             {}
func (NopObserver) OnGrant(model.CoreID, model.PageID, model.Tick, model.Tick) {}
func (NopObserver) OnServe(model.CoreID, model.PageID, model.Tick, model.Tick) {}
func (NopObserver) OnFetch(model.CoreID, model.PageID, model.Tick)             {}
func (NopObserver) OnEvict(model.PageID, model.Tick)                           {}
func (NopObserver) OnRemap(model.Tick, []int32, []int32)                       {}
func (NopObserver) OnTickEnd(model.Tick, int, int)                             {}

// MultiObserver fans every event out to several observers in attach order,
// so independent consumers (a timeline, a heat map, a trace exporter) can
// watch one simulation together. It folds fast-forwarded stretches only
// when every consumer folds (see StretchObserver); a mixed set replays
// every stretch tick by tick for all of them.
type MultiObserver struct {
	obs []Observer
}

// NewMultiObserver builds a fan-out over the given observers; nil entries
// are dropped.
func NewMultiObserver(obs ...Observer) *MultiObserver {
	m := &MultiObserver{}
	for _, o := range obs {
		m.Attach(o)
	}
	return m
}

// Attach adds one more consumer; nil is ignored.
func (m *MultiObserver) Attach(o Observer) {
	if o != nil {
		m.obs = append(m.obs, o)
	}
}

// Len returns the number of attached consumers.
func (m *MultiObserver) Len() int { return len(m.obs) }

func (m *MultiObserver) OnQueue(c model.CoreID, p model.PageID, t model.Tick) {
	for _, o := range m.obs {
		o.OnQueue(c, p, t)
	}
}

func (m *MultiObserver) OnGrant(c model.CoreID, p model.PageID, t, wait model.Tick) {
	for _, o := range m.obs {
		o.OnGrant(c, p, t, wait)
	}
}

func (m *MultiObserver) OnServe(c model.CoreID, p model.PageID, t, resp model.Tick) {
	for _, o := range m.obs {
		o.OnServe(c, p, t, resp)
	}
}

func (m *MultiObserver) OnFetch(c model.CoreID, p model.PageID, t model.Tick) {
	for _, o := range m.obs {
		o.OnFetch(c, p, t)
	}
}

func (m *MultiObserver) OnEvict(p model.PageID, t model.Tick) {
	for _, o := range m.obs {
		o.OnEvict(p, t)
	}
}

func (m *MultiObserver) OnRemap(t model.Tick, old, new []int32) {
	for _, o := range m.obs {
		o.OnRemap(t, old, new)
	}
}

func (m *MultiObserver) OnTickEnd(t model.Tick, depth, busy int) {
	for _, o := range m.obs {
		o.OnTickEnd(t, depth, busy)
	}
}

// OnStretch implements StretchObserver: it forwards the stretch to every
// consumer when all of them fold, and otherwise forwards nothing and
// returns false.
func (m *MultiObserver) OnStretch(t0, n model.Tick, active []model.CoreID, first []model.Tick) bool {
	if !m.folds() {
		return false
	}
	for _, o := range m.obs {
		o.(StretchObserver).OnStretch(t0, n, active, first)
	}
	return true
}

// folds reports whether every consumer folds stretches. It is decided
// before anything is forwarded, because a consumer that has folded a
// stretch cannot take it back; nested fan-outs are asked the same
// question, since they implement OnStretch whatever their members.
func (m *MultiObserver) folds() bool {
	for _, o := range m.obs {
		switch o := o.(type) {
		case *MultiObserver:
			if !o.folds() {
				return false
			}
		case StretchObserver:
		default:
			return false
		}
	}
	return true
}

// SetObserver installs an observer for subsequent Steps; nil removes it.
// Use NewMultiObserver to attach several consumers at once. Observers do
// not affect simulation results; a StretchObserver also keeps
// fast-forwarded stretches batched.
func (s *Sim) SetObserver(o Observer) { s.obs = o }
