package core

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/membackend"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// fuzzConfig is the fixed configuration the checkpoint fuzzers run under:
// random arbiter + random replacement + dynamic permuter exercises every
// stateful component (three rng streams, priority slots, histograms).
func fuzzConfig() Config {
	return Config{
		HBMSlots:         8,
		Channels:         2,
		FetchLatency:     3,
		Arbiter:          arbiter.Random,
		Replacement:      replacement.Random,
		Permuter:         arbiter.Dynamic,
		RemapPeriod:      4,
		Seed:             99,
		CollectHistogram: true,
	}
}

// fuzzTraces derives a small workload from the fuzz input bytes: two
// cores, pages in 0..7, a few dozen references.
func fuzzTraces(data []byte) [][]model.PageID {
	if len(data) > 64 {
		data = data[:64]
	}
	ts := make([][]model.PageID, 2)
	for i, b := range data {
		ts[i%2] = append(ts[i%2], model.PageID(int(b&7)+(i%2)*100))
	}
	for c := range ts {
		if len(ts[c]) == 0 {
			ts[c] = []model.PageID{model.PageID(c * 100)}
		}
	}
	return ts
}

// FuzzCheckpointRoundTrip drives a simulation to a fuzz-chosen tick,
// checkpoints, resumes, and requires the resumed run to finish with a
// result identical to the uninterrupted one — the differential matrix
// test's guarantee, under arbitrary workloads and split points.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3}, uint8(3))
	f.Add([]byte{7, 7, 7, 0, 0, 0, 1, 2}, uint8(9))
	f.Add([]byte{1}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, splitAt uint8) {
		cfg := fuzzConfig()
		ts := fuzzTraces(data)

		ref, err := New(cfg, ts)
		if err != nil {
			t.Skip()
		}
		for ref.Step() {
		}
		resRef := ref.Result()

		s, err := New(cfg, ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint8(0); i < splitAt && s.Step(); i++ {
		}
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		r, err := Resume(&buf, cfg, ts)
		if err != nil {
			t.Fatalf("Resume of a just-written checkpoint: %v", err)
		}
		for r.Step() {
		}
		if !reflect.DeepEqual(r.Result(), resRef) {
			t.Fatalf("resumed result differs:\n got %+v\nwant %+v", r.Result(), resRef)
		}
	})
}

// FuzzResumeCorrupt feeds arbitrary bytes to Resume: whatever the input
// — truncated, bit-flipped, or pure noise — it must return an error or a
// valid simulator, never panic. Seeds include a genuine snapshot so the
// mutator explores near-valid inputs.
func FuzzResumeCorrupt(f *testing.F) {
	cfg := fuzzConfig()
	ts := fuzzTraces([]byte{0, 1, 2, 3, 4, 5, 6, 7, 2, 4, 6, 1, 3, 5, 7, 0})
	s, err := New(cfg, ts)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s.Step()
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add([]byte("HBMSNAP1 not really"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Resume(bytes.NewReader(data), cfg, ts)
		if err != nil {
			return
		}
		// The rare mutation that still checks out must yield a simulator
		// that runs to completion without panicking.
		for r.Step() {
		}
		r.Result()
	})
}

// forgedConfigs are the configurations FuzzResumeForged resumes under,
// one per seed snapshot: between them they cover every arbiter, the
// rng-drawing and recency-keeping replacement policies, Belady, both
// mappings, all three backends, and more cores than HBM slots.
func forgedConfigs() []Config {
	bw := membackend.Config{Kind: membackend.Bandwidth}
	hy := membackend.Config{Kind: membackend.Hybrid}
	return []Config{
		fuzzConfig(),
		{HBMSlots: 8, Channels: 1},
		{HBMSlots: 8, Channels: 2, Arbiter: arbiter.Priority, Permuter: arbiter.Dynamic, RemapPeriod: 5,
			Replacement: replacement.Clock, Backend: bw, Seed: 3},
		{HBMSlots: 8, Channels: 2, Arbiter: arbiter.Priority, Replacement: replacement.Belady, Backend: hy, Seed: 4},
		{HBMSlots: 8, Channels: 1, Arbiter: arbiter.Random, Mapping: MappingDirect, FetchLatency: 2, Seed: 5},
		{HBMSlots: 8, Channels: 2, Arbiter: arbiter.FIFO, Replacement: replacement.FIFO, Backend: hy, Seed: 6},
		{HBMSlots: 2, Channels: 2, FetchLatency: 3, Seed: 7},
	}
}

// FuzzResumeForged gets past the checksum that stops almost every
// FuzzResumeCorrupt input: it mutates a snapshot body, appends the
// body's own FNV-64a trailer, as a faulty or forged writer would, and
// resumes it under the seed's config. Resume must refuse the snapshot
// or return a simulator that steps to the end of its run without a
// panic or a hang. Seeds are mid-run snapshots of every config in
// forgedConfigs.
func FuzzResumeForged(f *testing.F) {
	cfgs := forgedConfigs()
	ts := checkpointWorkload()
	for i, cfg := range cfgs {
		s, err := New(cfg, ts)
		if err != nil {
			f.Fatal(err)
		}
		for range 12 {
			s.Step()
		}
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), buf.Bytes()[:buf.Len()-8])
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		cfg := cfgs[int(which)%len(cfgs)]
		h := fnv.New64a()
		h.Write(body)
		snapshot := binary.LittleEndian.AppendUint64(bytes.Clone(body), h.Sum64())
		r, err := Resume(bytes.NewReader(snapshot), cfg, ts)
		if err != nil {
			return
		}
		for r.Step() {
		}
		r.Result()
	})
}
