package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// checkResidency fails unless the Sim's residency table agrees with its
// store on every dense page.
func checkResidency(t *testing.T, s *Sim, when string) {
	t.Helper()
	for pg, res := range s.resident {
		if got := s.store.Contains(model.PageID(pg)); res != got {
			t.Fatalf("%s (tick %d): table says page %d resident=%v, store says %v", when, s.tick, pg, res, got)
		}
	}
}

// TestResidencyTableMatchesStore pins the table Step reads residency
// from to the store it mirrors: after every Step, for every replacement
// policy and both mappings on every backend, whether the run cruises,
// steps tick by tick (noFF) or has an event observer attached. A run is
// also checkpointed mid-way and resumed, whose table is rebuilt from the
// loaded store, and the resumed run is checked to its end and must
// finish with the uninterrupted run's Result.
func TestResidencyTableMatchesStore(t *testing.T) {
	ts := checkpointWorkload()
	modes := []struct {
		name string
		prep func(*Sim)
	}{
		{"cruising", func(*Sim) {}},
		{"per-tick", func(s *Sim) { s.noFF = true }},
		{"observed", func(s *Sim) { s.SetObserver(struct{ NopObserver }{}) }},
	}
	for bname, base := range backendConfigs() {
		for _, mapping := range []Mapping{MappingAssociative, MappingDirect} {
			for _, pol := range append(replacement.Kinds(), replacement.Belady) {
				for _, m := range modes {
					cfg := base
					cfg.Mapping, cfg.Replacement = mapping, pol
					t.Run(fmt.Sprintf("%s/%s/%s/%s", bname, mapping, pol, m.name), func(t *testing.T) {
						s, err := New(cfg, ts)
						if err != nil {
							t.Fatal(err)
						}
						m.prep(s)
						checkResidency(t, s, "after New")
						var snap bytes.Buffer
						for n := 1; s.Step(); n++ {
							checkResidency(t, s, fmt.Sprintf("step %d", n))
							if snap.Len() == 0 && s.Tick() >= 50 {
								if err := s.Checkpoint(&snap); err != nil {
									t.Fatal(err)
								}
							}
						}
						if snap.Len() == 0 {
							t.Fatal("run ended before tick 50: no mid-run checkpoint")
						}
						r, err := Resume(&snap, cfg, ts)
						if err != nil {
							t.Fatal(err)
						}
						m.prep(r)
						checkResidency(t, r, "after Resume")
						for n := 1; r.Step(); n++ {
							checkResidency(t, r, fmt.Sprintf("resumed step %d", n))
						}
						if got, want := r.Result(), s.Result(); !reflect.DeepEqual(got, want) {
							t.Fatalf("resumed Result differs:\n got %+v\nwant %+v", got, want)
						}
					})
				}
			}
		}
	}
}
