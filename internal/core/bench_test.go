package core

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/membackend"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
	"hbmsim/internal/trace"
	"hbmsim/internal/workloads"
)

// dense renumbers ts in place from 0 in first-appearance order, as
// trace.NewWorkload and the generators number a workload, so the
// benchmarks below time New's one-pass path, not its renumbering copy.
// The associative stores are invariant under the renaming; the
// direct-mapped slot hash reads the page IDs.
func dense(ts [][]model.PageID) [][]model.PageID {
	trace.RenumberAll(ts, ts)
	return ts
}

// benchWorkload builds a contended synthetic workload: p cores, each
// cycling through its own page set with some random jumps, so both hit and
// miss paths are exercised. Pages are numbered densely (see dense).
func benchWorkload(p, pagesPerCore, refsPerCore int) [][]model.PageID {
	ts := make([][]model.PageID, p)
	rng := rand.New(rand.NewSource(1))
	for i := range ts {
		tr := make([]model.PageID, refsPerCore)
		pos := 0
		for j := range tr {
			if rng.Intn(8) == 0 {
				pos = rng.Intn(pagesPerCore)
			} else {
				pos = (pos + 1) % pagesPerCore
			}
			tr[j] = model.PageID(i*pagesPerCore + pos)
		}
		ts[i] = tr
	}
	return dense(ts)
}

// benchRun simulates ts under cfg once per iteration, with prep (if
// not nil) applied to each fresh Sim, and reports throughput in serves
// (refs) per second. Next to allocs/op it reports the run's
// deterministic work counts, which a snapshot can compare across hosts:
// executed ticks, jumped ticks, cruised serves and evictions per run.
func benchRun(b *testing.B, cfg Config, ts [][]model.PageID, prep func(*Sim)) {
	b.Helper()
	var refs uint64
	for _, tr := range ts {
		refs += uint64(len(tr))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var s *Sim
	var res *Result
	for i := 0; i < b.N; i++ {
		var err error
		if s, err = New(cfg, ts); err != nil {
			b.Fatal(err)
		}
		if prep != nil {
			prep(s)
		}
		for s.Step() {
		}
		if res = s.Result(); res.TotalRefs != refs {
			b.Fatal("incomplete run")
		}
	}
	b.ReportMetric(float64(refs)*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
	b.ReportMetric(float64(s.Tick()), "ticks/op")
	b.ReportMetric(float64(s.FastForwardedTicks()), "ff_ticks/op")
	b.ReportMetric(float64(s.counters().Cruised), "cruised/op")
	b.ReportMetric(float64(res.Evictions), "evictions/op")
}

// BenchmarkSimPaper runs the paper's contended shapes that bench/'s
// sim-paper workload times end to end: SpGEMM (p=32, N=96) and sort
// (p=32, N=8000) at k=1000, q=1, LRU, under FIFO and Dynamic Priority,
// seed 1. Generation is outside the timer; core.New is inside.
func BenchmarkSimPaper(b *testing.B) {
	for _, shape := range []workloads.Spec{
		{Gen: "spgemm", Cores: 32, Size: 96, Seed: 1},
		{Gen: "sort", Cores: 32, Size: 8000, Seed: 1},
	} {
		wl, err := shape.Build()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			cfg  Config
		}{
			{"fifo", Config{HBMSlots: 1000, Channels: 1, Seed: 1}},
			{"dynamic-priority", Config{HBMSlots: 1000, Channels: 1, Arbiter: arbiter.Priority,
				Permuter: arbiter.Dynamic, RemapPeriod: 10000, Seed: 1}},
		} {
			b.Run(shape.Gen+"/"+c.name, func(b *testing.B) {
				benchRun(b, c.cfg, wl.Raw(), nil)
			})
		}
	}
}

// BenchmarkNew measures construction alone (New: page compaction, the
// ownership table, the store, policy, arbiter and backend) over the
// shapes bench/ builds a Sim for: SpGEMM (p=32, N=96) and sort (p=32,
// N=8000) from sim-paper, and dense MM (p=16, N=64) from sim-hitstretch.
// Generation is outside the timer.
func BenchmarkNew(b *testing.B) {
	for _, shape := range []workloads.Spec{
		{Gen: "spgemm", Cores: 32, Size: 96, Seed: 1},
		{Gen: "sort", Cores: 32, Size: 8000, Seed: 1},
		{Gen: "densemm", Cores: 16, Size: 64, Seed: 1},
	} {
		wl, err := shape.Build()
		if err != nil {
			b.Fatal(err)
		}
		ts := wl.Raw()
		cfg := Config{HBMSlots: 1000, Channels: 1, Seed: 1}
		b.Run(shape.Gen, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg, ts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSim measures simulator throughput on the contended benchWorkload.
func benchSim(b *testing.B, cfg Config) {
	b.Helper()
	benchRun(b, cfg, benchWorkload(32, 256, 4096), nil)
}

func BenchmarkSimFIFO(b *testing.B) {
	benchSim(b, Config{HBMSlots: 2048, Channels: 1, Arbiter: arbiter.FIFO})
}

func BenchmarkSimPriority(b *testing.B) {
	benchSim(b, Config{HBMSlots: 2048, Channels: 1, Arbiter: arbiter.Priority})
}

func BenchmarkSimDynamicPriority(b *testing.B) {
	benchSim(b, Config{
		HBMSlots: 2048, Channels: 1,
		Arbiter: arbiter.Priority, Permuter: arbiter.Dynamic, RemapPeriod: 20480,
	})
}

func BenchmarkSimRandomArbiter(b *testing.B) {
	benchSim(b, Config{HBMSlots: 2048, Channels: 1, Arbiter: arbiter.Random})
}

func BenchmarkSimDirectMapped(b *testing.B) {
	benchSim(b, Config{HBMSlots: 2048, Channels: 1, Mapping: MappingDirect})
}

func BenchmarkSimClockReplacement(b *testing.B) {
	benchSim(b, Config{HBMSlots: 2048, Channels: 1, Replacement: replacement.Clock})
}

func BenchmarkSimEightChannels(b *testing.B) {
	benchSim(b, Config{HBMSlots: 2048, Channels: 8})
}

// The backend dimension: the same contended workload under each
// far-memory model, so a kernel change that prices one backend out
// shows up next to the others in the benchjson snapshot.
func BenchmarkSimBackendReference(b *testing.B) {
	benchSim(b, Config{HBMSlots: 2048, Channels: 2})
}

func BenchmarkSimBackendBandwidth(b *testing.B) {
	benchSim(b, Config{HBMSlots: 2048, Channels: 2, Backend: membackend.Config{Kind: membackend.Bandwidth}})
}

func BenchmarkSimBackendHybrid(b *testing.B) {
	benchSim(b, Config{HBMSlots: 2048, Channels: 2, Backend: membackend.Config{Kind: membackend.Hybrid}})
}

// benchSimObserver is benchSim with an explicit observer (possibly nil)
// attached, so the emission overhead on the hot path can be compared
// against the nil-check-only baseline.
func benchSimObserver(b *testing.B, obs Observer) {
	b.Helper()
	cfg := Config{
		HBMSlots: 2048, Channels: 1,
		Arbiter: arbiter.Priority, Permuter: arbiter.Dynamic, RemapPeriod: 20480,
	}
	benchRun(b, cfg, benchWorkload(32, 256, 4096), func(s *Sim) { s.SetObserver(obs) })
}

// hitStretchWorkload is the cruising path's best case: p cores, each
// cycling a resident working set with a miss only every `period` refs,
// so almost the whole run is contention-free stretches. Pages are
// numbered densely (see dense).
func hitStretchWorkload(p, refsPerCore, span, period int) [][]model.PageID {
	ts := make([][]model.PageID, p)
	for i := range ts {
		tr := make([]model.PageID, refsPerCore)
		pos, extra := 0, span
		for j := range tr {
			if period > 0 && j%period == period-1 {
				// A cold page: ends the stretch with a genuine miss.
				tr[j] = model.PageID(i*100000 + extra)
				extra++
				continue
			}
			tr[j] = model.PageID(i*100000 + pos)
			pos = (pos + 1) % span
		}
		ts[i] = tr
	}
	return dense(ts)
}

// BenchmarkSimHitStretch measures long pure-hit runs under LRU across
// several core counts. With no event observer every core cruises: its
// serves fold in closed form, its LRU touches are deferred, and the
// ticks with no active core are jumped.
func BenchmarkSimHitStretch(b *testing.B) {
	for _, p := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			ts := hitStretchWorkload(p, 65536, 48, 2048)
			benchRun(b, Config{HBMSlots: 4096, Channels: 4}, ts, nil)
		})
	}
}

// BenchmarkSimHitStretchFIFO is the p=8 hit-stretch shape under FIFO,
// whose Touch is a no-op, so the cruises defer no recency at all.
func BenchmarkSimHitStretchFIFO(b *testing.B) {
	ts := hitStretchWorkload(8, 65536, 48, 2048)
	benchRun(b, Config{HBMSlots: 4096, Channels: 4, Replacement: replacement.FIFO}, ts, nil)
}

// BenchmarkSimHitStretchUnbatched is the p=8 hit-stretch shape stepped
// tick by tick, without cruising: the baseline
// the benchmarks above and below are compared against.
func BenchmarkSimHitStretchUnbatched(b *testing.B) {
	ts := hitStretchWorkload(8, 65536, 48, 2048)
	benchRun(b, Config{HBMSlots: 4096, Channels: 4}, ts, func(s *Sim) { s.noFF = true })
}

// BenchmarkSimHitStretchObserved is the p=8 hit-stretch shape with an
// event observer attached, as every event collector attaches one: the
// run cruises as a bare one does, and emits each cruising core's serves
// and each jumped tick's events as per-tick stepping would.
func BenchmarkSimHitStretchObserved(b *testing.B) {
	ts := hitStretchWorkload(8, 65536, 48, 2048)
	benchRun(b, Config{HBMSlots: 4096, Channels: 4}, ts, func(s *Sim) { s.SetObserver(struct{ NopObserver }{}) })
}

// zipfianHotspotWorkload draws each core's refs from a Zipf distribution
// over its own page range: a hot head that stays resident (long
// stretches) with a heavy tail of misses that break them — the realistic
// middle ground between the hit-stretch and contended benchmarks. Pages
// are numbered densely (see dense).
func zipfianHotspotWorkload(p, refsPerCore, pages int) [][]model.PageID {
	ts := make([][]model.PageID, p)
	rng := rand.New(rand.NewSource(3))
	z := rand.NewZipf(rng, 1.2, 1, uint64(pages-1))
	for i := range ts {
		tr := make([]model.PageID, refsPerCore)
		for j := range tr {
			tr[j] = model.PageID(uint64(i*pages) + z.Uint64())
		}
		ts[i] = tr
	}
	return dense(ts)
}

// BenchmarkSimZipfianHotspot measures throughput on the Zipf hotspot mix,
// where cores cruise between misses.
func BenchmarkSimZipfianHotspot(b *testing.B) {
	ts := zipfianHotspotWorkload(16, 32768, 4096)
	benchRun(b, Config{HBMSlots: 8192, Channels: 4}, ts, nil)
}

func BenchmarkSimObserverNil(b *testing.B) {
	benchSimObserver(b, nil)
}

func BenchmarkSimObserverNop(b *testing.B) {
	benchSimObserver(b, NopObserver{})
}

func BenchmarkSimObserverMulti(b *testing.B) {
	benchSimObserver(b, NewMultiObserver(NopObserver{}, NopObserver{}))
}

// BenchmarkCheckpoint measures one snapshot of a simulator mid-run, on
// the contended SpGEMM shape a served job checkpoints (16 cores, N=64,
// 64-byte pages, dynamic priority), taken at tick 65536 to io.Discard.
// Every iteration checkpoints the same Sim, as a long job does at each
// checkpoint interval.
func BenchmarkCheckpoint(b *testing.B) {
	wl, err := workloads.SpGEMMWorkload(16, workloads.SpGEMMConfig{N: 64, PageBytes: 64}, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{HBMSlots: 256, Channels: 1, Arbiter: arbiter.Priority,
		Permuter: arbiter.Dynamic, RemapPeriod: 10000, Seed: 1}, wl.Raw())
	if err != nil {
		b.Fatal(err)
	}
	s.SetBoundary(65536)
	for s.Tick() < 65536 && s.Step() {
	}
	if s.Done() {
		b.Fatal("workload finished before the checkpoint tick")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Checkpoint(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
