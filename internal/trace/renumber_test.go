package trace

import (
	"fmt"
	"slices"
	"testing"

	"hbmsim/internal/model"
)

// mapRenumber is Renumber's oracle: first-appearance renumbering through
// a plain map.
func mapRenumber(src Trace, base model.PageID) (Trace, int) {
	ids := make(map[model.PageID]model.PageID)
	out := make(Trace, len(src))
	for j, p := range src {
		id, ok := ids[p]
		if !ok {
			id = base + model.PageID(len(ids))
			ids[p] = id
		}
		out[j] = id
	}
	return out, len(ids)
}

// mapRenumberAll is RenumberAll's oracle: one map across every trace.
func mapRenumberAll(src []Trace) ([][]model.PageID, []model.PageID) {
	ids := make(map[model.PageID]model.PageID)
	var origOf []model.PageID
	out := make([][]model.PageID, len(src))
	for i, tr := range src {
		out[i] = make([]model.PageID, len(tr))
		for j, p := range tr {
			id, ok := ids[p]
			if !ok {
				id = model.PageID(len(origOf))
				ids[p] = id
				origOf = append(origOf, p)
			}
			out[i][j] = id
		}
	}
	return out, origOf
}

// mapUniquePages, mapUniquePagesPerCore and mapValidate are the
// map-per-reference implementations the table-backed methods replaced.
func mapUniquePages(w *Workload) int {
	seen := make(map[model.PageID]struct{})
	for _, t := range w.Traces {
		for _, p := range t {
			seen[p] = struct{}{}
		}
	}
	return len(seen)
}

func mapUniquePagesPerCore(w *Workload) []int {
	out := make([]int, len(w.Traces))
	for i, t := range w.Traces {
		seen := make(map[model.PageID]struct{})
		for _, p := range t {
			seen[p] = struct{}{}
		}
		out[i] = len(seen)
	}
	return out
}

func mapValidate(w *Workload) error {
	owner := make(map[model.PageID]int)
	for i, t := range w.Traces {
		for _, p := range t {
			if prev, ok := owner[p]; ok && prev != i {
				return fmt.Errorf("trace: page %d referenced by both core %d and core %d (traces must be disjoint)", p, prev, i)
			}
			owner[p] = i
		}
	}
	return nil
}

// checkAgainstOracles compares Renumber (into a fresh slice and in
// place), RenumberAll and the workload statistics with their map
// oracles.
func checkAgainstOracles(t *testing.T, traces []Trace, base model.PageID) {
	t.Helper()
	for i, src := range traces {
		want, wantN := mapRenumber(src, base)
		orig := append(Trace(nil), src...)
		dst := make(Trace, len(src))
		if n := Renumber(dst, src, base); n != wantN || !slices.Equal(dst, want) {
			t.Fatalf("core %d: Renumber = %v (%d pages), oracle %v (%d pages)", i, dst, n, want, wantN)
		}
		if !slices.Equal(src, orig) {
			t.Fatalf("core %d: Renumber wrote its source", i)
		}
		if n := Renumber(orig, orig, base); n != wantN || !slices.Equal(orig, want) {
			t.Fatalf("core %d: in-place Renumber = %v (%d pages), oracle %v", i, orig, n, want)
		}
	}
	wantAll, wantOrig := mapRenumberAll(traces)
	src := make([][]model.PageID, len(traces))
	dst := make([][]model.PageID, len(traces))
	for i, tr := range traces {
		src[i] = append([]model.PageID(nil), tr...)
		dst[i] = make([]model.PageID, len(tr))
	}
	origOf := RenumberAll(dst, src)
	if !slices.Equal(origOf, wantOrig) {
		t.Fatalf("RenumberAll origOf = %v, oracle %v", origOf, wantOrig)
	}
	for i := range traces {
		if !slices.Equal(dst[i], wantAll[i]) || !slices.Equal(src[i], traces[i]) {
			t.Fatalf("core %d: RenumberAll = %v from %v, oracle %v from %v", i, dst[i], src[i], wantAll[i], traces[i])
		}
	}
	RenumberAll(src, src)
	if !slices.EqualFunc(src, wantAll, slices.Equal) {
		t.Fatalf("in-place RenumberAll = %v, oracle %v", src, wantAll)
	}
	wl := Raw("w", traces)
	if got, want := wl.UniquePages(), mapUniquePages(wl); got != want {
		t.Fatalf("UniquePages %d, oracle %d", got, want)
	}
	if got, want := wl.UniquePagesPerCore(), mapUniquePagesPerCore(wl); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("UniquePagesPerCore %v, oracle %v", got, want)
	}
	if got, want := wl.Validate(), mapValidate(wl); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Validate: %v, oracle %v", got, want)
	}
}

func TestRenumberAndStatsMatchMapOracle(t *testing.T) {
	const top = ^model.PageID(0)
	// A three-reference trace gets a flat table of up to 4*3+1024 = 1036
	// entries, so 1035 is the last ID the table holds.
	cases := []struct {
		name   string
		traces []Trace
	}{
		{"empty", []Trace{{}, nil}},
		{"dense", []Trace{{100, 200, 100}, {0, 1, 0, 2}}},
		{"overlapping", []Trace{{1, 2, 3}, {3, 4}, {5, 1}}},
		{"overlap-same-core-first", []Trace{{7, 7, 8}, {9, 8, 7}}},
		{"sparse", []Trace{{1 << 31, 3, 1 << 31}, {1<<31 + 1, 3 << 30}}},
		{"near-2^32", []Trace{{top, top - 1, top}, {top - 2, 0, top - 2}}},
		{"table-limit", []Trace{{1035, 0, 1035}, {1036, 1035, 1}}},
		{"past-limit-after-growth", []Trace{{0, 2000, 5000, 1 << 31, 2000, 0}}},
		{"many-cores", []Trace{{0}, {1}, {2}, {3}, {1}, {4, 4}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, base := range []model.PageID{0, 7, top - 1} {
				checkAgainstOracles(t, c.traces, base)
			}
		})
	}
}

// TestPageTableStaysSmall pins the map fallback: an ID past the flat
// table's limit moves the table to a map instead of growing a slice to
// reach it.
func TestPageTableStaysSmall(t *testing.T) {
	ids := newPageTable(10) // limit 4*10+1024
	ids.set(1063, 1)
	if ids.m != nil || len(ids.flat) != 1064 {
		t.Fatalf("ID below the limit: flat len %d, map %v", len(ids.flat), ids.m != nil)
	}
	ids.set(1064, 2)
	if ids.m == nil || ids.flat != nil {
		t.Fatalf("ID at the limit kept a flat table of %d entries", len(ids.flat))
	}
	ids.set(1<<31, 3)
	for p, want := range map[model.PageID]int32{1063: 1, 1064: 2, 1 << 31: 3, 5: 0} {
		if got := ids.get(p); got != want {
			t.Fatalf("get(%d) = %d after the move to a map, want %d", p, got, want)
		}
	}
}

// fuzzTrace decodes data into page IDs of four kinds, picked by the low
// two bits of each 16-bit word: small IDs, IDs straddling the flat
// table's limit for a trace this long, IDs near 2^32, and IDs 2^16
// apart from 2^31, past the flat table's cap.
func fuzzTrace(data []byte) Trace {
	n := len(data) / 2
	limit := uint64(4*n + 1024)
	tr := make(Trace, n)
	for i := range tr {
		v := uint64(data[2*i])<<8 | uint64(data[2*i+1])
		k := v >> 2
		switch v & 3 {
		case 0:
			tr[i] = model.PageID(k)
		case 1:
			tr[i] = model.PageID(limit - 4 + k%8)
		case 2:
			tr[i] = model.PageID(model.MaxPageID - k%64)
		case 3:
			tr[i] = model.PageID(1<<31 + k<<16)
		}
	}
	return tr
}

// FuzzRenumber checks Renumber and the table-backed workload statistics
// against their map oracles on traces mixing dense, table-limit, near
// 2^32 and sparse IDs, split into two cores at an arbitrary point. The
// base is taken modulo 2^32.
func FuzzRenumber(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint8(0))
	f.Add([]byte{0, 4, 0, 8, 0, 4, 0, 12}, uint64(0), uint8(2))
	f.Add([]byte{0, 1, 0, 5, 0, 13, 0, 1, 0, 0}, uint64(9), uint8(3))
	f.Add([]byte{0, 2, 0, 6, 0, 2, 0, 3, 0, 7, 0, 3}, uint64(model.MaxPageID), uint8(1))
	f.Add([]byte{1, 0, 0, 1, 1, 0, 0, 2, 0, 3, 1, 0}, uint64(1)<<31, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, base uint64, split uint8) {
		tr := fuzzTrace(data)
		cut := int(split) % (len(tr) + 1)
		checkAgainstOracles(t, []Trace{tr[:cut], tr[cut:]}, model.PageID(base))
		checkAgainstOracles(t, []Trace{tr}, model.PageID(base))
	})
}
