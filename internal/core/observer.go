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

// CounterObserver is an Observer that reads the simulator's counter
// ledger instead of receiving events, so it costs the step loop nothing
// per event. Step hands it the ledger on the first Step at or past each
// multiple of 1024 ticks and on every Step that returns false. The
// ledger is the simulator's own storage: copy what must outlive the call.
type CounterObserver interface {
	Observer
	OnCounters(*Counters)
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
// watch one simulation together. SetObserver reads its members once, so
// attach them all before installing it.
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

// SetObserver installs an observer for subsequent Steps; nil removes it.
// Use NewMultiObserver to attach several consumers at once. Counter
// observers, alone or at any depth of a fan-out, get the ledger and no
// events, so a fan-out of only counter observers leaves the step loop
// unobserved; the other members get every event in attach order.
// Observers do not affect simulation results.
func (s *Sim) SetObserver(o Observer) {
	s.obs, s.cobs = nil, nil
	events := &MultiObserver{}
	s.split(o, events)
	if len(events.obs) == 1 {
		s.obs = events.obs[0]
	} else if len(events.obs) > 1 {
		s.obs = events
	}
	if s.obs != nil && s.cruise {
		// Events come tick by tick from every core: cruise no more.
		s.disengage()
	}
	s.nextPush = (s.tick/counterTicks + 1) * counterTicks
}

// split sorts o into counter observers, kept in s.cobs, and event
// observers, flattening fan-outs in attach order.
func (s *Sim) split(o Observer, events *MultiObserver) {
	switch o := o.(type) {
	case CounterObserver:
		s.cobs = append(s.cobs, o)
	case *MultiObserver:
		for _, m := range o.obs {
			s.split(m, events)
		}
	default:
		events.Attach(o)
	}
}
