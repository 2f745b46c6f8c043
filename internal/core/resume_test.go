package core

import (
	"bytes"
	"strings"
	"testing"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/membackend"
	"hbmsim/internal/model"
)

// TestResumeRefusesContradictions puts a Sim in a state no run reaches,
// writes it with Checkpoint, so its checksum is valid, and requires
// Resume to refuse the snapshot with an error naming what contradicts
// what. Accepted, the first rows' snapshots make Step panic, and a huge
// draw count makes the rng replay hang.
func TestResumeRefusesContradictions(t *testing.T) {
	ts := checkpointWorkload()
	cfg := func(arb arbiter.Kind) Config {
		return Config{HBMSlots: 8, Channels: 1, Arbiter: arb, Seed: 5}
	}
	// queuedSim steps a run until a request waits in the arbiter queue
	// and returns a queued core (at unit latency nothing is in flight
	// between ticks, so its request is in the queue).
	queuedSim := func(t *testing.T, s *Sim) model.CoreID {
		t.Helper()
		for s.arb.Len() == 0 {
			if !s.Step() {
				t.Fatal("no request was ever queued")
			}
		}
		for c, q := range s.queued {
			if q {
				return model.CoreID(c)
			}
		}
		t.Fatal("a request is queued but no core is")
		return 0
	}
	// again is a second request for core c's current page.
	again := func(s *Sim, c model.CoreID) model.Request {
		s.seq++
		return model.Request{Core: c, Page: s.traces[c][s.pos[c]], Issued: s.reqTick[c], Seq: s.seq}
	}
	queueTwice := func(t *testing.T, s *Sim) {
		s.arb.Push(again(s, queuedSim(t, s)))
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		traces [][]model.PageID
		forge  func(t *testing.T, s *Sim)
		want   string
	}{
		{"two queued requests for one core under FIFO", cfg(arbiter.FIFO), ts, queueTwice,
			"with 2 requests outstanding"},
		{"two queued requests for one core under Random", cfg(arbiter.Random), ts, queueTwice,
			"with 2 requests outstanding"},
		{"two queued requests for one core under Priority", cfg(arbiter.Priority), ts, func(t *testing.T, s *Sim) {
			// A Priority arbiter holds one request per rank, so the queue
			// is written through a FIFO, whose section has the same
			// layout: the queued requests in pop order.
			c := queuedSim(t, s)
			fifo := arbiter.MustNew(arbiter.FIFO, len(s.cores), 0)
			for r, ok := s.arb.Pop(); ok; r, ok = s.arb.Pop() {
				fifo.Push(r)
			}
			fifo.Push(again(s, c))
			s.arb = fifo
		}, "both queued at priority rank"},
		{"a finished core in the active set", cfg(arbiter.FIFO), traces([]int{0}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}), func(t *testing.T, s *Sim) {
			for !s.cores[0].done {
				s.Step()
			}
			s.active = append([]model.CoreID{0}, s.active...)
		}, "core 0 done true, active true"},
		{"a request tick after the snapshot's tick", cfg(arbiter.FIFO), ts, func(t *testing.T, s *Sim) {
			s.Step()
			s.reqTick[s.active[0]] = s.tick + 5
		}, "requesting at tick 6 on tick 1"},
		{"a draw count no run reaches by the snapshot's tick", cfg(arbiter.Random), ts, func(t *testing.T, s *Sim) {
			for range 1000 {
				s.arb.Push(model.Request{})
				s.arb.Pop()
			}
		}, "draw count 1000 exceeds limit 0"},
		{"a finished core with references left", cfg(arbiter.FIFO), ts, func(t *testing.T, s *Sim) {
			s.Step()
			s.cores[s.active[0]].done = true
		}, "has done true with its cursor"},
		{"a transfer in flight between ticks at unit latency", cfg(arbiter.FIFO), ts, func(t *testing.T, s *Sim) {
			queuedSim(t, s)
			r, _ := s.arb.Pop()
			s.backend.Start(s.tick, membackend.Transfer{Core: r.Core, Page: r.Page})
		}, "done tick 1 is out of order or not one a transfer started by tick 1 can have"},
		{"more transfers landing on one tick than channels start", Config{HBMSlots: 2, Channels: 2, FetchLatency: 3}, ts, func(t *testing.T, s *Sim) {
			// Four cores, two slots: the two transfers granted on tick 1
			// and two started beside them land together on tick 3.
			s.Step()
			for range 2 {
				r, _ := s.arb.Pop()
				s.backend.Start(s.tick, membackend.Transfer{Core: r.Core, Page: r.Page})
			}
		}, "more than 2 transfers completing at tick 3"},
		{"a transfer in flight that was due already", Config{HBMSlots: 8, Channels: 2, FetchLatency: 3}, ts, func(t *testing.T, s *Sim) {
			for s.tick < 4 || s.arb.Len() == 0 {
				s.Step()
			}
			r, _ := s.arb.Pop()
			s.backend.Start(s.tick-3, membackend.Transfer{Core: r.Core, Page: r.Page})
		}, "not one a transfer started by tick"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg, tc.traces)
			if err != nil {
				t.Fatal(err)
			}
			tc.forge(t, s)
			var buf bytes.Buffer
			if err := s.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := Resume(bytes.NewReader(buf.Bytes()), tc.cfg, tc.traces)
			if err == nil {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("Resume accepted the snapshot, and Step panicked: %v", p)
					}
				}()
				r.noFF = true
				for i := 0; i < 1000 && r.Step(); i++ {
				}
				t.Fatalf("Resume accepted the snapshot; want an error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Resume error %q, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestResumeAcceptsEveryTick resumes a snapshot taken after every tick of
// a run under each arbiter and backend, so the cross-section checks are
// held to every state a run passes through, not only the mid-run ones
// the round-trip tests take.
func TestResumeAcceptsEveryTick(t *testing.T) {
	ts := checkpointWorkload()
	for _, arb := range arbiter.Kinds() {
		for _, be := range []membackend.Config{{}, {Kind: membackend.Bandwidth}, {Kind: membackend.Hybrid}} {
			cfg := Config{HBMSlots: 8, Channels: 2, FetchLatency: 2, Arbiter: arb, Backend: be,
				Permuter: arbiter.Dynamic, RemapPeriod: 7, Seed: 11}
			if arb != arbiter.Priority {
				cfg.Permuter, cfg.RemapPeriod = "", 0
			}
			t.Run(string(arb)+"/"+string(be.WithDefaults().Kind), func(t *testing.T) {
				s, err := New(cfg, ts)
				if err != nil {
					t.Fatal(err)
				}
				s.SetBoundary(1)
				for more := true; more; more = s.Step() {
					var buf bytes.Buffer
					if err := s.Checkpoint(&buf); err != nil {
						t.Fatal(err)
					}
					if _, err := Resume(&buf, cfg, ts); err != nil {
						t.Fatalf("tick %d: %v", s.Tick(), err)
					}
				}
			})
		}
	}
}
