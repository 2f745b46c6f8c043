package serve

import (
	"math/rand"
	"testing"

	"hbmsim/internal/core"
	"hbmsim/internal/model"
	"hbmsim/internal/trace"
	"hbmsim/internal/workloads"
)

// TestGeneratorFingerprintsPinned pins what every built-in generator
// produces through the job-spec entry point: core.WorkloadHash of the
// built traces, from which snapshot headers, sweep-journal keys,
// manifest fingerprints and result-cache keys all derive, and the
// distinct-page count. The values were recorded before workload
// generation moved to the chunked access log and per-core table
// renumbering; a change to any of them invalidates every stored
// fingerprint. densemm at size 300 is left out: it logs 405M
// references. The mergesort, quicksort, heapsort and strided rows were
// recorded before job specs named those generators, from the calls
// their table entries make.
func TestGeneratorFingerprintsPinned(t *testing.T) {
	golden := []struct {
		gen    string
		size   int
		page   int
		hash   uint64
		unique int
	}{
		{"sort", 24, 0, 0x153876dbfc1723c4, 15},
		{"sort", 24, 8, 0x5cf27c040ff09eef, 120},
		{"sort", 24, 4096, 0xdbe3c1341f0c31ad, 5},
		{"sort", 64, 0, 0x96a232b6f6ce2a7f, 40},
		{"sort", 64, 8, 0x914f4758e3344962, 320},
		{"sort", 64, 4096, 0x86648430c6a50b0a, 5},
		{"sort", 300, 0, 0xf5d27369139b1706, 190},
		{"sort", 300, 8, 0xdfa9174ff5740fe2, 1500},
		{"sort", 300, 4096, 0x578f777478f6132f, 5},
		{"spgemm", 24, 0, 0xfe1fe58261376d6d, 392},
		{"spgemm", 24, 8, 0xb6c60c17d83ae91a, 3020},
		{"spgemm", 24, 4096, 0x3d00c6d0a67ace57, 15},
		{"spgemm", 64, 0, 0x69f29661b5e4b5b0, 3628},
		{"spgemm", 64, 8, 0xcb0b48c26d5576d0, 28985},
		{"spgemm", 64, 4096, 0xb9c9bbf63f19673c, 65},
		{"spgemm", 300, 0, 0xb99173b1c770ef67, 130170},
		{"spgemm", 300, 8, 0x488bd3b5943b200a, 1041295},
		{"spgemm", 300, 4096, 0x0d549315c6756172, 2041},
		{"densemm", 24, 0, 0x9df3a82910946dcc, 1080},
		{"densemm", 24, 8, 0x411a360a1c12bfb2, 8640},
		{"densemm", 24, 4096, 0xadce76856bb659ec, 20},
		{"densemm", 64, 0, 0x6918670515d6adbc, 7680},
		{"densemm", 64, 8, 0x919487105644968c, 61440},
		{"densemm", 64, 4096, 0x95a8e757d8a0fa7c, 120},
		{"stream", 24, 0, 0x4b5d9f88cc8a4468, 45},
		{"stream", 24, 8, 0x9e964cb9bfd39410, 360},
		{"stream", 24, 4096, 0xbbad13d612d75b68, 5},
		{"stream", 64, 0, 0x45b88964572e5de0, 120},
		{"stream", 64, 8, 0x7e6d559ae26b48e0, 960},
		{"stream", 64, 4096, 0xbabd3c39189e3be0, 5},
		{"stream", 300, 0, 0x9bbec667ca0cd99d, 565},
		{"stream", 300, 8, 0x52b8a1e369b37e01, 4500},
		{"stream", 300, 4096, 0x7e1a5c595c699ab5, 10},
		{"bfs", 24, 0, 0x84b83d5531ff8f46, 156},
		{"bfs", 24, 8, 0xf35e1d0bc591bef3, 1234},
		{"bfs", 24, 4096, 0x4610f42b8fe56efa, 5},
		{"bfs", 64, 0, 0x9f41cfd91c5e2003, 435},
		{"bfs", 64, 8, 0x3e6bf44ad5244a2f, 3465},
		{"bfs", 64, 4096, 0x1f32c726f7aeec82, 10},
		{"bfs", 300, 0, 0x64c534de401dd65b, 2086},
		{"bfs", 300, 8, 0x48730cfb5184242d, 16665},
		{"bfs", 300, 4096, 0xcc9d266cba7640b2, 35},
		{"adversarial", 24, 0, 0x29b27d35b8ba5eb3, 120},
		{"adversarial", 24, 8, 0x29b27d35b8ba5eb3, 120},
		{"adversarial", 24, 4096, 0x29b27d35b8ba5eb3, 120},
		{"adversarial", 64, 0, 0x33fa3d5c51046443, 320},
		{"adversarial", 64, 8, 0x33fa3d5c51046443, 320},
		{"adversarial", 64, 4096, 0x33fa3d5c51046443, 320},
		{"adversarial", 300, 0, 0xb7dc58236ba8bbb7, 1500},
		{"adversarial", 300, 8, 0xb7dc58236ba8bbb7, 1500},
		{"adversarial", 300, 4096, 0xb7dc58236ba8bbb7, 1500},
		{"uniform", 24, 0, 0xba49649b32943c3a, 30},
		{"uniform", 24, 8, 0xba49649b32943c3a, 30},
		{"uniform", 24, 4096, 0xba49649b32943c3a, 30},
		{"uniform", 64, 0, 0xc07c7f30bd66d042, 77},
		{"uniform", 64, 8, 0xc07c7f30bd66d042, 77},
		{"uniform", 64, 4096, 0xc07c7f30bd66d042, 77},
		{"uniform", 300, 0, 0x07c7e65316ae2158, 368},
		{"uniform", 300, 8, 0x07c7e65316ae2158, 368},
		{"uniform", 300, 4096, 0x07c7e65316ae2158, 368},
		{"zipf", 24, 0, 0xc1c360d0461c4fa2, 23},
		{"zipf", 24, 8, 0xc1c360d0461c4fa2, 23},
		{"zipf", 24, 4096, 0xc1c360d0461c4fa2, 23},
		{"zipf", 64, 0, 0x7be4b6d580bd8199, 62},
		{"zipf", 64, 8, 0x7be4b6d580bd8199, 62},
		{"zipf", 64, 4096, 0x7be4b6d580bd8199, 62},
		{"zipf", 300, 0, 0xed278905eaafdee8, 256},
		{"zipf", 300, 8, 0xed278905eaafdee8, 256},
		{"zipf", 300, 4096, 0xed278905eaafdee8, 256},
		{"mergesort", 24, 0, 0xdf16a2a55b68cb2a, 30},
		{"mergesort", 24, 8, 0x6f8c7ad56ce3fdb7, 240},
		{"mergesort", 24, 4096, 0x87061a9527382bbb, 5},
		{"mergesort", 64, 0, 0x2b89373682115228, 80},
		{"mergesort", 64, 8, 0xb7deb1f2fab7ecba, 640},
		{"mergesort", 64, 4096, 0xb720200fbdec1478, 5},
		{"mergesort", 300, 0, 0xad59c6064c013693, 375},
		{"mergesort", 300, 8, 0x1f446ab1d02cca33, 3000},
		{"mergesort", 300, 4096, 0x39129d56badf2a9c, 10},
		{"quicksort", 24, 0, 0x9539ccb3eeb1bdf6, 15},
		{"quicksort", 24, 8, 0x4fab346730094b80, 120},
		{"quicksort", 24, 4096, 0xdd5073ad6c453ce0, 5},
		{"quicksort", 64, 0, 0x68897a12a602bc78, 40},
		{"quicksort", 64, 8, 0xed43f63c43905e85, 320},
		{"quicksort", 64, 4096, 0xb00a4f6d1bb69dac, 5},
		{"quicksort", 300, 0, 0x4c4bdb3814f30629, 190},
		{"quicksort", 300, 8, 0x234093b8c82b306f, 1500},
		{"quicksort", 300, 4096, 0xfd6cc403122b4c52, 5},
		{"heapsort", 24, 0, 0x778767048dd69880, 15},
		{"heapsort", 24, 8, 0x69df986ec36e8eaf, 120},
		{"heapsort", 24, 4096, 0xacf9db9657051521, 5},
		{"heapsort", 64, 0, 0x8f3f847584844551, 40},
		{"heapsort", 64, 8, 0xb9b49eb4a72bf4cf, 320},
		{"heapsort", 64, 4096, 0x4ce48e41ad2865d3, 5},
		{"heapsort", 300, 0, 0x8660323e430fc363, 190},
		{"heapsort", 300, 8, 0x84c106672fbb5655, 1500},
		{"heapsort", 300, 4096, 0x8d8be2a428df5a67, 5},
		{"strided", 24, 0, 0xa94b98e0fd00a4b8, 30},
		{"strided", 24, 8, 0xa94b98e0fd00a4b8, 30},
		{"strided", 24, 4096, 0xa94b98e0fd00a4b8, 30},
		{"strided", 64, 0, 0x92c1722bc0390360, 80},
		{"strided", 64, 8, 0x92c1722bc0390360, 80},
		{"strided", 64, 4096, 0x92c1722bc0390360, 80},
		{"strided", 300, 0, 0x55f503094391eaf7, 375},
		{"strided", 300, 8, 0x55f503094391eaf7, 375},
		{"strided", 300, 4096, 0x55f503094391eaf7, 375},
	}
	for _, g := range golden {
		wl, err := WorkloadSpec{Gen: g.gen, Cores: 5, Size: g.size, PageBytes: g.page, Seed: 3}.Build()
		if err != nil {
			t.Fatalf("%s size %d page %d: %v", g.gen, g.size, g.page, err)
		}
		if h := core.WorkloadHash(wl.Raw()); h != g.hash {
			t.Errorf("%s size %d page %d: WorkloadHash %#016x, pinned %#016x", g.gen, g.size, g.page, h, g.hash)
		}
		if u := wl.UniquePages(); u != g.unique {
			t.Errorf("%s size %d page %d: %d unique pages, pinned %d", g.gen, g.size, g.page, u, g.unique)
		}
	}

	mixed, err := workloads.Mixed(goldenMixedSpecs(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if h, u := core.WorkloadHash(mixed.Raw()), mixed.UniquePages(); h != 0x36f8d68217d3d471 || u != 1939 {
		t.Errorf("mixed: WorkloadHash %#016x with %d unique pages, pinned 0x36f8d68217d3d471 with 1939", h, u)
	}

	sparse := trace.NewWorkload("sparse", goldenSparseTraces())
	if h, u := core.WorkloadHash(sparse.Raw()), sparse.UniquePages(); h != 0x40b950b21155541d || u != 243 {
		t.Errorf("sparse NewWorkload: WorkloadHash %#016x with %d unique pages, pinned 0x40b950b21155541d with 243", h, u)
	}
}

// goldenMixedSpecs is a three-component mixed workload whose components
// differ in generator and page size.
func goldenMixedSpecs() []workloads.MixedSpec {
	return []workloads.MixedSpec{
		{Cores: 2, Name: "sort", Gen: func(seed int64) (trace.Trace, error) {
			return workloads.SortTrace(workloads.SortConfig{N: 300, PageBytes: 64}, seed)
		}},
		{Cores: 3, Name: "spgemm", Gen: func(seed int64) (trace.Trace, error) {
			return workloads.SpGEMMTrace(workloads.SpGEMMConfig{N: 24, PageBytes: 8}, seed)
		}},
		{Cores: 1, Name: "zipf", Gen: func(seed int64) (trace.Trace, error) {
			return workloads.SyntheticTrace(workloads.SyntheticConfig{Kind: workloads.Zipfian, Refs: 500, Pages: 40}, seed)
		}},
	}
}

// goldenSparseTraces returns five cores of raw page IDs far too sparse
// for a lookup table: IDs around 2^31, IDs at the top of the 32-bit
// range, a core mixing small IDs with huge ones, and two cores sharing
// the same IDs.
func goldenSparseTraces() []trace.Trace {
	rng := rand.New(rand.NewSource(3))
	traces := make([]trace.Trace, 5)
	for i := range traces {
		tr := make(trace.Trace, 200)
		for j := range tr {
			k := model.PageID(rng.Intn(50))
			var p model.PageID
			switch i {
			case 0, 4:
				p = 1<<31 + k
			case 1:
				p = 1<<31 + k<<20
			case 2:
				p = model.MaxPageID - k
			case 3:
				p = k
				if k%7 == 0 {
					p = 1<<31 + k
				}
			}
			tr[j] = p
		}
		traces[i] = tr
	}
	return traces
}
