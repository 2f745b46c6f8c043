package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hbmsim/internal/model"
)

func sampleWorkload() *Workload {
	return &Workload{
		Name: "sample workload",
		Traces: []Trace{
			{0, 1, 2, 1, 0},
			{},
			{model.MaxPageID - 1, model.MaxPageID, 5},
		},
	}
}

func equalWorkloads(a, b *Workload) bool {
	if a.Name != b.Name || len(a.Traces) != len(b.Traces) {
		return false
	}
	for i := range a.Traces {
		if len(a.Traces[i]) != len(b.Traces[i]) {
			return false
		}
		for j := range a.Traces[i] {
			if a.Traces[i][j] != b.Traces[i][j] {
				return false
			}
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	wl := sampleWorkload()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, wl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalWorkloads(wl, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", wl, got)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a trace")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// Right magic, wrong version.
	if _, err := ReadBinary(bytes.NewReader([]byte{'H', 'B', 'M', 'T', 99})); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	wl := sampleWorkload()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, wl); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 8, len(full) / 2, len(full) - 1} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	wl := sampleWorkload()
	var buf bytes.Buffer
	if err := WriteText(&buf, wl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalWorkloads(wl, got) {
		t.Fatalf("round trip mismatch:\n%+v\ntext:\n%s", got, buf.String())
	}
}

func TestTextRejectsRefBeforeCore(t *testing.T) {
	if _, err := ReadText(strings.NewReader("42\n")); err == nil {
		t.Fatal("reference before '# core' accepted")
	}
}

func TestTextRejectsBadNumber(t *testing.T) {
	if _, err := ReadText(strings.NewReader("# core 0\nnotanumber\n")); err == nil {
		t.Fatal("bad number accepted")
	}
}

func TestTextIgnoresBlanksAndStrayComments(t *testing.T) {
	in := "# workload  w two\n#\n# core 0\n\n1\n 2 \n# something else\n3\n"
	wl, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if wl.Name != "w two" {
		t.Errorf("name: %q", wl.Name)
	}
	if len(wl.Traces) != 1 || len(wl.Traces[0]) != 3 {
		t.Fatalf("traces: %+v", wl.Traces)
	}
}

// binaryPages encodes a two-core binary trace, core 0 empty and core 1
// referencing pages, the way WriteBinary would if a page ID were 64-bit.
func binaryPages(pages ...uint64) []byte {
	b := []byte{'H', 'B', 'M', 'T', binaryVersion, 0, 2, 0}
	b = binary.AppendUvarint(b, uint64(len(pages)))
	prev := uint64(0)
	for _, p := range pages {
		b = binary.AppendVarint(b, int64(p-prev))
		prev = p
	}
	return b
}

// TestReadBinaryPageRange: the binary reader accepts the largest 32-bit
// page ID, which round-trips byte for byte, and refuses a wider one,
// naming its core, reference index and value.
func TestReadBinaryPageRange(t *testing.T) {
	for _, c := range []struct {
		page uint64
		err  string
	}{
		{1<<32 - 1, ""},
		{1 << 32, "trace: core 1 ref 1: page 4294967296 is past the largest page ID 4294967295"},
		{math.MaxUint64, "trace: core 1 ref 1: page 18446744073709551615 is past the largest page ID 4294967295"},
	} {
		in := binaryPages(5, c.page)
		wl, err := ReadBinary(bytes.NewReader(in))
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("page %d: error %v, want %q", c.page, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("page %d: %v", c.page, err)
		}
		if len(wl.Traces) != 2 || len(wl.Traces[0]) != 0 || !slices.Equal(wl.Traces[1], Trace{5, model.PageID(c.page)}) {
			t.Fatalf("page %d: decoded %v", c.page, wl.Traces)
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, wl); err != nil || !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("page %d: re-encoded as %x (error %v), want %x", c.page, out.Bytes(), err, in)
		}
	}
}

// TestReadTextPageRange: the text reader accepts the largest 32-bit page
// ID, which round-trips, and refuses a wider one, naming its line, core,
// reference index and value.
func TestReadTextPageRange(t *testing.T) {
	for _, c := range []struct {
		page uint64
		err  string
	}{
		{1<<32 - 1, ""},
		{1 << 32, "trace: line 5: core 1 ref 1: page 4294967296 is past the largest page ID 4294967295"},
		{math.MaxUint64, "trace: line 5: core 1 ref 1: page 18446744073709551615 is past the largest page ID 4294967295"},
	} {
		in := fmt.Sprintf("# workload w\n# core 0\n# core 1\n5\n%d\n", c.page)
		wl, err := ReadText(strings.NewReader(in))
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("page %d: error %v, want %q", c.page, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("page %d: %v", c.page, err)
		}
		var out bytes.Buffer
		if err := WriteText(&out, wl); err != nil || out.String() != in {
			t.Fatalf("page %d: re-encoded as %q (error %v), want %q", c.page, out.String(), err, in)
		}
	}
}

// TestCodecPropertyRoundTrip fuzzes workloads through both codecs.
func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(seed int64, nameBytes []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		name := strings.Map(func(r rune) rune {
			if r == '\n' || r == '\r' {
				return ' '
			}
			return r
		}, strings.TrimSpace(string(nameBytes)))
		wl := &Workload{Name: name}
		for c := 0; c < rng.Intn(5); c++ {
			tr := make(Trace, rng.Intn(50))
			for j := range tr {
				tr[j] = model.PageID(rng.Uint32() >> uint(rng.Intn(32)))
			}
			wl.Traces = append(wl.Traces, tr)
		}
		var bin bytes.Buffer
		if err := WriteBinary(&bin, wl); err != nil {
			t.Fatalf("write binary: %v", err)
		}
		fromBin, err := ReadBinary(&bin)
		if err != nil {
			t.Fatalf("read binary: %v", err)
		}
		if !equalWorkloads(wl, fromBin) {
			t.Fatalf("binary round trip mismatch (seed %d)", seed)
		}
		var txt bytes.Buffer
		if err := WriteText(&txt, wl); err != nil {
			t.Fatalf("write text: %v", err)
		}
		fromTxt, err := ReadText(&txt)
		if err != nil {
			t.Fatalf("read text: %v", err)
		}
		// Text format cannot distinguish a trailing empty trace set from
		// none, but core count and refs must survive for non-empty names.
		if !equalWorkloads(wl, fromTxt) {
			// Allow only name-whitespace differences.
			fromTxt.Name = wl.Name
			if !equalWorkloads(wl, fromTxt) {
				t.Fatalf("text round trip mismatch (seed %d): %q vs %q", seed, wl.Name, fromTxt.Name)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryAllocationBomb: a header declaring an enormous reference
// count backed by a tiny stream must fail with a decode error, not
// attempt the allocation (found by FuzzReadBinary).
func TestBinaryAllocationBomb(t *testing.T) {
	// magic, version, empty name, 1 core, declared count ~2^60, no data.
	payload := []byte{'H', 'B', 'M', 'T', 1, 0, 1}
	var buf [10]byte
	n := putUvarintHelper(buf[:], 1<<60)
	payload = append(payload, buf[:n]...)
	if _, err := ReadBinary(bytes.NewReader(payload)); err == nil {
		t.Fatal("bomb accepted")
	}
}

func putUvarintHelper(buf []byte, v uint64) int {
	i := 0
	for v >= 0x80 {
		buf[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	buf[i] = byte(v)
	return i + 1
}

func TestBinaryDeltaEfficiency(t *testing.T) {
	// Sequential scans should encode near one byte per reference.
	tr := make(Trace, 10000)
	for i := range tr {
		tr[i] = model.PageID(i)
	}
	wl := &Workload{Name: "seq", Traces: []Trace{tr}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, wl); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > len(tr)*2 {
		t.Errorf("sequential encoding too large: %d bytes for %d refs", buf.Len(), len(tr))
	}
}
