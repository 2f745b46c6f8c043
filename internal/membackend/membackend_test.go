package membackend

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"hbmsim/internal/model"
	"hbmsim/internal/snap"
)

// manyCores is more cores than any backend in these tests keeps
// transfers in flight, so each in-flight queue is preallocated to its
// MaxInFlight: the suites start transfers without the kernel's one
// outstanding fetch per core.
const manyCores = 1 << 10

func mustNew(t testing.TB, cfg Config, channels, latency int) Backend {
	t.Helper()
	b, err := New(cfg, channels, latency, manyCores)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestConformanceAllBackends runs the shared suite over every registered
// backend, at two channel widths each.
func TestConformanceAllBackends(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		channels int
		latency  int
	}{
		{"reference/L1/q2", Config{Kind: Reference}, 2, 1},
		{"reference/L3/q2", Config{Kind: Reference}, 2, 3},
		{"reference/L4/q1", Config{Kind: Reference}, 1, 4},
		{"bandwidth/q2", Config{Kind: Bandwidth}, 2, 1},
		{"bandwidth/q1/slow", Config{Kind: Bandwidth, BytesPerTick: 8, LatencyTicks: 9}, 1, 1},
		{"hybrid/q2", Config{Kind: Hybrid}, 2, 1},
		{"hybrid/q1/tiny-fast", Config{Kind: Hybrid, FastSlots: 4}, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			RunBackendConformance(t, func() Backend {
				return mustNew(t, tc.cfg, tc.channels, tc.latency)
			})
		})
	}
}

// TestReferenceMatchesPaperModel pins the reference backend's grant and
// landing arithmetic against the paper's model directly.
func TestReferenceMatchesPaperModel(t *testing.T) {
	b := mustNew(t, Config{Kind: Reference}, 2, 3)
	if got := b.GrantLimit(10); got != 2 {
		t.Fatalf("GrantLimit = %d, want channels = 2", got)
	}
	b.Start(10, Transfer{Core: 1, Page: 7})
	b.Start(10, Transfer{Core: 2, Page: 8})
	// Transfers granted at t land at t+L-1 = 12.
	for tick := model.Tick(10); tick < 12; tick++ {
		if got := b.DueAt(tick, 5); got != 0 {
			t.Fatalf("DueAt(%d) = %d, want 0", tick, got)
		}
		if got := b.Drain(tick, nil); len(got) != 0 {
			t.Fatalf("Drain(%d) returned %d transfers before land", tick, len(got))
		}
	}
	if got := b.NextEventTick(); got != 12 {
		t.Fatalf("NextEventTick = %d, want 12", got)
	}
	got := b.Drain(12, nil)
	if len(got) != 2 || got[0].Page != 7 || got[1].Page != 8 {
		t.Fatalf("Drain(12) = %+v, want pages 7,8 in start order", got)
	}

	// Unit latency: DueAt folds same-tick grants bounded by queueLen.
	b = mustNew(t, Config{Kind: Reference}, 3, 1)
	if got := b.DueAt(5, 2); got != 2 {
		t.Fatalf("DueAt(L=1, queue=2) = %d, want 2", got)
	}
	if got := b.DueAt(5, 9); got != 3 {
		t.Fatalf("DueAt(L=1, queue=9) = %d, want channels = 3", got)
	}
}

// TestBandwidthThroughput pins the bandwidth model's occupancy and
// latency arithmetic: a 64-byte page at 16 bytes/tick occupies 4 ticks,
// landing 4 latency ticks later.
func TestBandwidthThroughput(t *testing.T) {
	b := mustNew(t, Config{Kind: Bandwidth}, 1, 1)
	if got := b.GrantLimit(1); got != 1 {
		t.Fatalf("GrantLimit = %d, want 1", got)
	}
	b.Start(1, Transfer{Core: 0, Page: 3})
	// Channel busy through tick 4: no grants until tick 5.
	for tick := model.Tick(1); tick <= 4; tick++ {
		if got := b.GrantLimit(tick); got != 0 {
			t.Fatalf("GrantLimit(%d) = %d while channel busy", tick, got)
		}
	}
	if got := b.GrantLimit(5); got != 1 {
		t.Fatalf("GrantLimit(5) = %d, want channel free", got)
	}
	// done = 1 + ceil(64/16) + 4 = 9.
	if got := b.NextEventTick(); got != 9 {
		t.Fatalf("NextEventTick = %d, want 9", got)
	}
	if got := b.Drain(8, nil); len(got) != 0 {
		t.Fatalf("Drain(8) returned %d transfers early", len(got))
	}
	got := b.Drain(9, nil)
	if len(got) != 1 || got[0].Page != 3 {
		t.Fatalf("Drain(9) = %+v", got)
	}
}

// TestHybridTiersAndWriteback pins the two-tier cost model: first touch
// pays the slow read, a re-fetch hits the fast tier, writebacks evict
// from the fast tier and throttle the grant limit while the writeback
// channel is behind.
func TestHybridTiersAndWriteback(t *testing.T) {
	cfg := Config{Kind: Hybrid, FastSlots: 2, FastReadTicks: 2, SlowReadTicks: 8, FastWriteTicks: 2, SlowWriteTicks: 24}
	b := mustNew(t, cfg, 2, 1)

	b.Start(1, Transfer{Core: 0, Page: 10}) // cold: slow read, done 9
	if got := b.NextEventTick(); got != 9 {
		t.Fatalf("cold read NextEventTick = %d, want 9", got)
	}
	if got := b.Drain(9, nil); len(got) != 1 || got[0].Page != 10 {
		t.Fatalf("Drain(9) = %+v", got)
	}

	b.Start(10, Transfer{Core: 0, Page: 10}) // cached: fast read, done 12
	if got := b.NextEventTick(); got != 12 {
		t.Fatalf("cached read NextEventTick = %d, want 12", got)
	}
	b.Drain(12, nil)

	// Writeback of a fast-tier page: cheap, but it leaves the tier — the
	// next fetch is slow again.
	sink := b.(WritebackSink)
	sink.Writeback(20, 10)
	b.Start(21, Transfer{Core: 0, Page: 10})
	if got := b.NextEventTick(); got != 29 {
		t.Fatalf("read-after-evict NextEventTick = %d, want slow read (29)", got)
	}
	b.Drain(29, nil)

	// A slow-tier writeback parks the writeback channel for 24 ticks and
	// withholds one fetch channel meanwhile.
	sink.Writeback(30, 999)
	if got := b.GrantLimit(31); got != 1 {
		t.Fatalf("GrantLimit during writeback backlog = %d, want 1", got)
	}
	if got := b.GrantLimit(60); got != 2 {
		t.Fatalf("GrantLimit after backlog = %d, want 2", got)
	}

	// FIFO eviction: filling the 2-slot fast tier pushes out the oldest.
	b2 := mustNew(t, cfg, 2, 1)
	b2.Start(1, Transfer{Page: 1})
	b2.Start(1, Transfer{Page: 2})
	b2.Drain(9, nil)
	b2.Start(10, Transfer{Page: 3}) // evicts page 1 from the fast tier
	b2.Drain(18, nil)
	b2.Start(20, Transfer{Page: 1}) // slow again
	if got := b2.NextEventTick(); got != 28 {
		t.Fatalf("FIFO-evicted page read NextEventTick = %d, want 28", got)
	}

	// Completion order follows read cost, not start order: a fast-tier
	// read started after a slow-tier read lands first.
	b2.Start(21, Transfer{Core: 1, Page: 3}) // fast tier: done 23
	if got := b2.NextEventTick(); got != 23 {
		t.Fatalf("fast read behind a slow one: NextEventTick = %d, want 23", got)
	}
	if got := b2.Drain(23, nil); len(got) != 1 || got[0].Page != 3 {
		t.Fatalf("Drain(23) = %+v, want the later fast-tier read first", got)
	}
	if got := b2.Drain(28, nil); len(got) != 1 || got[0].Page != 1 {
		t.Fatalf("Drain(28) = %+v, want the earlier slow-tier read", got)
	}
}

// TestConfigDefaultsAndValidate covers the defaulting table and the
// rejection paths.
func TestConfigDefaultsAndValidate(t *testing.T) {
	d := Config{}.WithDefaults()
	if d.Kind != Reference || d.PageBytes != 64 || d.BytesPerTick != 16 || d.FastSlots != 64 {
		t.Fatalf("unexpected defaults: %+v", d)
	}
	if d.LatencyTicks != 0 {
		t.Fatalf("reference default latency_ticks = %d, want 0", d.LatencyTicks)
	}
	if got := (Config{Kind: Bandwidth}).WithDefaults().LatencyTicks; got != 4 {
		t.Fatalf("bandwidth default latency_ticks = %d, want 4", got)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
	if err := (Config{Kind: "dram"}).Validate(); err == nil {
		t.Fatal("unknown kind must fail validation")
	}
	if err := (Config{Kind: Bandwidth, BytesPerTick: -1}).Validate(); err == nil {
		t.Fatal("negative bytes_per_tick must fail validation")
	}
	if err := (Config{Kind: Bandwidth, LatencyTicks: -1}).Validate(); err == nil {
		t.Fatal("negative latency_ticks must fail validation")
	}
	// MaxInFlight is channels x (latency_ticks+2), the snapshot decode
	// bound: a latency that overflows it must be refused before New sees
	// it.
	if err := (Config{Kind: Bandwidth, LatencyTicks: math.MaxInt}).Validate(); err == nil {
		t.Fatal("latency_ticks above the parameter bound must fail validation")
	}
	if _, err := New(Config{Kind: Reference}, 0, 1, 1); err == nil {
		t.Fatal("zero channels must fail")
	}
	if _, err := New(Config{Kind: Reference}, 1, 1, 0); err == nil {
		t.Fatal("zero cores must fail")
	}
	// The reference model's MaxInFlight is channels x fetch latency.
	if _, err := New(Config{Kind: Reference}, 2, 1<<62, 1); err == nil {
		t.Fatal("a fetch latency above the parameter bound must fail")
	}
}

// TestCanonical pins the fingerprint-facing canonical strings; the
// reference form must stay exactly "reference" (pre-backend fingerprints
// depend on it).
func TestCanonical(t *testing.T) {
	if got := (Config{}).Canonical(); got != "reference" {
		t.Fatalf("zero config canonical = %q", got)
	}
	bw := Config{Kind: Bandwidth}.Canonical()
	if !strings.Contains(bw, "bandwidth") || !strings.Contains(bw, "bytes_per_tick=16") {
		t.Fatalf("bandwidth canonical = %q", bw)
	}
	hy := Config{Kind: Hybrid, SlowWriteTicks: 40}.Canonical()
	if !strings.Contains(hy, "hybrid") || !strings.Contains(hy, "slow_write_ticks=40") {
		t.Fatalf("hybrid canonical = %q", hy)
	}
	if (Config{Kind: Bandwidth}).Canonical() != (Config{Kind: Bandwidth, PageBytes: 64}).Canonical() {
		t.Fatal("defaulted and explicit configs must share a canonical form")
	}
}

// TestParseParams covers the CLI's backend name and key=value parameter
// syntax.
func TestParseParams(t *testing.T) {
	c, err := Parse("bandwidth", "bytes_per_tick=32, latency_ticks=2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != Bandwidth || c.BytesPerTick != 32 || c.LatencyTicks != 2 {
		t.Fatalf("parsed %+v", c)
	}
	if _, err := Parse("bandwidth", ""); err != nil {
		t.Fatalf("empty params must default: %v", err)
	}
	for _, bad := range []string{"nope=1", "bytes_per_tick", "bytes_per_tick=x", "fast_slots=-1"} {
		if _, err := Parse("hybrid", bad); err == nil {
			t.Fatalf("Parse(hybrid, %q) must fail", bad)
		}
	}
	if c, err := Parse("", ""); err != nil || c.Kind != Reference {
		t.Fatalf("empty name = %+v, %v; want the reference backend", c, err)
	}
	if _, err := Parse("sram", ""); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown kind: %v", err)
	}
}

// FuzzParseBackend holds Parse, the -backend / -backend-params and job
// spec parser, to its contract on any input: it never panics, and a
// config it accepts validates and builds for one to three channels.
func FuzzParseBackend(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""},
		{"reference", "latency_ticks=3"},
		{"bandwidth", "bytes_per_tick=32, latency_ticks=2"},
		{"bandwidth", "page_bytes=65536,bytes_per_tick=1,latency_ticks=65536"},
		{"hybrid", "fast_slots=8,slow_write_ticks=48"},
		{"hybrid", "nope=1,,fast_read_ticks=x"},
		{"bandwidth", "latency_ticks=9223372036854775807"},
		{"sram", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, name, params string) {
		c, err := Parse(name, params)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("Parse(%q, %q) accepted %+v, which does not validate: %v", name, params, c, err)
		}
		for q := 1; q <= 3; q++ {
			if _, err := New(c, q, 1, 1); err != nil {
				t.Fatalf("Parse(%q, %q) accepted %+v, which New refuses at %d channels: %v", name, params, c, q, err)
			}
		}
	})
}

// TestLoadStateRejectsCorrupt fuzz-adjacent negative decode cases: a
// non-monotone land tick, an out-of-range page, a duplicated fast-tier
// page, a transfer size other than the page size, and land ticks no
// transfer started by the snapshot's tick 7 can have.
func TestLoadStateRejectsCorrupt(t *testing.T) {
	load := func(b Backend, write func(w *snap.Writer)) error {
		var buf bytes.Buffer
		w := snap.NewWriter(&buf)
		write(w)
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		r := snap.NewReader(bytes.NewReader(buf.Bytes()))
		r.MaxCores = 4
		r.MaxPages = 100
		r.Tick = 7
		b.LoadState(r)
		return r.Err()
	}

	ref := mustNew(t, Config{Kind: Reference}, 2, 3)
	if err := load(ref, func(w *snap.Writer) {
		w.Int(2)
		w.U64(0)
		w.U64(1)
		w.U64(9) // land 9
		w.U64(1)
		w.U64(2)
		w.U64(8) // land 8 < 9: not monotone
	}); err == nil {
		t.Fatal("reference must reject non-monotone land ticks")
	}
	// At latency 3 a transfer started by tick 7 lands on tick 8 or 9,
	// at most two (q) on one tick; at latency 1 it has landed by then.
	for _, tc := range []struct {
		name    string
		latency int
		lands   []uint64
	}{
		{"a land tick at the snapshot's tick", 3, []uint64{7}},
		{"a land tick more than L-1 ticks on", 3, []uint64{10}},
		{"more than q transfers landing on one tick", 3, []uint64{9, 9, 9}},
		{"a transfer in flight at unit latency", 1, []uint64{8}},
	} {
		if err := load(mustNew(t, Config{Kind: Reference}, 2, tc.latency), func(w *snap.Writer) {
			w.Int(len(tc.lands))
			for i, land := range tc.lands {
				w.U64(uint64(i))
				w.U64(1)
				w.U64(land)
			}
		}); err == nil {
			t.Fatalf("reference must reject %s", tc.name)
		}
	}
	if err := load(mustNew(t, Config{Kind: Reference}, 2, 3), func(w *snap.Writer) {
		w.Int(1)
		w.U64(0)
		w.U64(500) // page out of range
		w.U64(9)
	}); err == nil {
		t.Fatal("reference must reject out-of-range pages")
	}
	if err := load(mustNew(t, Config{Kind: Reference}, 2, 3), func(w *snap.Writer) {
		w.Int(99) // exceeds MaxInFlight
	}); err == nil {
		t.Fatal("reference must reject oversized in-flight counts")
	}

	hy := mustNew(t, Config{Kind: Hybrid}, 2, 1)
	if err := load(hy, func(w *snap.Writer) {
		w.Int(2)
		w.U64(7)
		w.U64(7) // duplicate fast-tier page
	}); err == nil {
		t.Fatal("hybrid must reject duplicate fast-tier pages")
	}

	bw := mustNew(t, Config{Kind: Bandwidth}, 2, 1)
	if err := load(bw, func(w *snap.Writer) {
		w.U64(0)
		w.U64(0) // freeAt
		w.Int(2)
		w.U64(0)
		w.U64(1)
		w.Int(64)
		w.U64(9)
		w.U64(1)
		w.U64(2)
		w.Int(64)
		w.U64(8) // done 8 < 9: not monotone
	}); err == nil {
		t.Fatal("bandwidth must reject non-monotone done ticks")
	}
	if err := load(mustNew(t, Config{Kind: Bandwidth}, 2, 1), func(w *snap.Writer) {
		w.U64(0)
		w.U64(0) // freeAt
		w.Int(1)
		w.U64(0)
		w.U64(1)
		w.Int(32) // size slot other than the 64-byte page
		w.U64(9)
	}); err == nil {
		t.Fatal("bandwidth must reject a transfer size other than the page size")
	}
}

// Benchmarks: per-backend cost of the kernel-facing call sequence under
// a steady granted load, for the benchjson backend dimension.
func benchBackend(b *testing.B, cfg Config, channels, latency int) {
	be, err := New(cfg, channels, latency, manyCores)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]Transfer, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := model.Tick(i + 1)
		n := be.GrantLimit(t)
		if n > 2 {
			n = 2
		}
		_ = be.DueAt(t, n)
		for j := 0; j < n; j++ {
			be.Start(t, Transfer{Core: model.CoreID(j), Page: model.PageID(i&1023) + model.PageID(j)})
		}
		dst = be.Drain(t, dst[:0])
	}
}

func BenchmarkBackendReference(b *testing.B) {
	benchBackend(b, Config{Kind: Reference}, 2, 3)
}

func BenchmarkBackendBandwidth(b *testing.B) {
	benchBackend(b, Config{Kind: Bandwidth}, 2, 1)
}

func BenchmarkBackendHybrid(b *testing.B) {
	benchBackend(b, Config{Kind: Hybrid}, 2, 1)
}
