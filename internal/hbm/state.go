package hbm

import (
	"fmt"

	"hbmsim/internal/snap"
)

// Checkpoint support. Assoc delegates to its replacement policy (the
// policy's residency set IS the store's residency set); DenseDirectMapped
// serialises its occupied slots. The sparse DirectMapped store has no
// checkpoint support: it only backs core.RunReference, which never
// checkpoints.

// SaveState implements snap.Saver when the underlying policy does;
// otherwise it latches a descriptive error into the writer.
func (s *Assoc) SaveState(w *snap.Writer) {
	sv, ok := s.policy.(snap.Saver)
	if !ok {
		w.Fail(fmt.Errorf("hbm: replacement policy %T does not support checkpointing", s.policy))
		return
	}
	sv.SaveState(w)
}

// LoadState implements snap.Loader.
func (s *Assoc) LoadState(r *snap.Reader) {
	ld, ok := s.policy.(snap.Loader)
	if !ok {
		r.Failf("hbm: replacement policy %T does not support checkpointing", s.policy)
		return
	}
	ld.LoadState(r)
	if r.Err() == nil && s.policy.Len() > s.capacity {
		r.Failf("hbm: snapshot holds %d resident pages for capacity %d", s.policy.Len(), s.capacity)
	}
}

// FinishLoad implements snap.Finisher, forwarding to the policy when it
// has deferred restore work (the random policy's rng replay).
func (s *Assoc) FinishLoad() error {
	if f, ok := s.policy.(snap.Finisher); ok {
		return f.FinishLoad()
	}
	return nil
}

// SaveState implements snap.Saver: the occupied (slot, page) pairs in
// slot order.
func (s *DenseDirectMapped) SaveState(w *snap.Writer) {
	w.Int(s.n)
	for i, pg := range s.slots {
		if pg >= 0 {
			w.U64(uint64(i))
			w.U64(uint64(pg))
		}
	}
}

// LoadState implements snap.Loader. Each pair is validated against the
// precomputed slot hash — a page can only be resident in its own slot —
// so a corrupt snapshot cannot fabricate impossible residency.
func (s *DenseDirectMapped) LoadState(r *snap.Reader) {
	for i := range s.slots {
		s.slots[i] = -1
	}
	s.n = 0
	n := r.Len(len(s.slots), "direct-mapped slots")
	for j := 0; j < n; j++ {
		slot := r.U64()
		page := r.Page()
		if r.Err() != nil {
			return
		}
		if slot >= uint64(len(s.slots)) {
			r.Failf("snap: slot %d out of range (capacity %d)", slot, len(s.slots))
			return
		}
		if uint64(s.slotOf[page]) != slot {
			r.Failf("snap: page %d mapped to slot %d, hash says %d", page, slot, s.slotOf[page])
			return
		}
		if s.slots[slot] >= 0 {
			r.Failf("snap: slot %d occupied twice", slot)
			return
		}
		s.slots[slot] = int32(page)
		s.n++
	}
}
