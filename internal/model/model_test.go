package model

import (
	"strings"
	"testing"
)

func TestRequestString(t *testing.T) {
	r := Request{Core: 3, Page: 42, Issued: 100, Seq: 7}
	s := r.String()
	for _, want := range []string{"core=3", "page=42", "issued=100", "seq=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("Request.String() = %q missing %q", s, want)
		}
	}
}

func TestTypeRanges(t *testing.T) {
	// PageID is 32-bit: a simulated workload is numbered densely from 0,
	// so 2^32 pages is far more than any trace in memory can reference.
	// CoreID is 32-bit and Tick 64-bit — runs last billions of ticks
	// but use only thousands of cores.
	var p PageID = MaxPageID
	if p+1 != 0 || p>>31 != 1 {
		t.Error("PageID is not 32 bits wide")
	}
	var tick Tick = 1 << 62
	if tick>>62 != 1 {
		t.Error("Tick narrower than 64 bits")
	}
}
