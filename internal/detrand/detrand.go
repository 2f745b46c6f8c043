// Package detrand wraps math/rand's default source with a draw counter,
// making the stream position part of a simulator component's dynamic
// state: a checkpoint saves (seed, draws), and a restore reseeds and
// fast-forwards by replaying draws. The wrapper forwards both Int63 and
// Uint64 one-for-one to the underlying source, so every value *rand.Rand
// derives from it is bit-identical to using rand.NewSource directly —
// the golden makespans pinned in internal/core stay valid.
package detrand

import (
	"math/rand"

	"hbmsim/internal/snap"
)

// Source is a counting rand.Source64. Not safe for concurrent use (like
// the source it wraps).
type Source struct {
	seed  int64
	draws uint64
	src   rand.Source64

	// pending is the draw count decoded by LoadState, applied (replayed)
	// by FinishLoad only after the snapshot checksum verified.
	pending uint64
	dirty   bool
}

// NewSource returns a counting source seeded like rand.NewSource(seed).
func NewSource(seed int64) *Source {
	return &Source{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 draws the next value, advancing the position by one.
func (s *Source) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Uint64 draws the next value, advancing the position by one. (For
// math/rand's default source, Int63 and Uint64 consume the same single
// step of the generator, so one counter covers both.)
func (s *Source) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// Seed reseeds the source and resets the position, satisfying
// rand.Source.
func (s *Source) Seed(seed int64) {
	s.seed, s.draws = seed, 0
	s.src.Seed(seed)
}

// SaveState writes the stream position. The seed is construction-time
// state (derived from Config.Seed), so it is not stored: a restore into
// a source built with a different seed is caught by the snapshot's
// config fingerprint before any component state is read.
func (s *Source) SaveState(w *snap.Writer) { w.U64(s.draws) }

// LoadState decodes the stream position but does not replay it; the
// replay cost is proportional to the saved draw count, so the count is
// bounded by the Reader's MaxDraws and the replay is deferred to
// FinishLoad (after checksum verification).
func (s *Source) LoadState(r *snap.Reader) {
	if s.pending = r.U64(); r.Err() == nil && s.pending > r.MaxDraws {
		r.Failf("snap: draw count %d exceeds limit %d", s.pending, r.MaxDraws)
	}
	s.dirty = true
}

// FinishLoad reseeds and replays the source to the position decoded by
// LoadState. A no-op when no LoadState preceded it.
func (s *Source) FinishLoad() error {
	if !s.dirty {
		return nil
	}
	s.dirty = false
	s.src.Seed(s.seed)
	s.draws = 0
	s.skip(s.pending)
	return nil
}

// skip advances the stream by n draws.
func (s *Source) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.draws += n
}
