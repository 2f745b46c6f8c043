package trace

import (
	"bytes"
	"testing"
)

// FuzzReadBinary: arbitrary bytes must never panic the binary decoder, and
// anything it accepts must round-trip back to identical bytes' content.
func FuzzReadBinary(f *testing.F) {
	wl := &Workload{Name: "seed", Traces: []Trace{{1, 2, 3}, {}, {9, 9}}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, wl); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("HBMT"))
	f.Add([]byte{'H', 'B', 'M', 'T', 1, 0, 0})
	f.Add(binaryPages(5, 1<<32-1)) // the largest page ID: accepted
	f.Add(binaryPages(5, 1<<32))   // one past it: refused
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, got); err != nil {
			t.Fatalf("re-encode of accepted workload failed: %v", err)
		}
		again, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !equalWorkloads(got, again) {
			t.Fatal("accepted workload does not round-trip")
		}
	})
}

// FuzzReadText: arbitrary text must never panic the text decoder.
func FuzzReadText(f *testing.F) {
	f.Add("# workload w\n# core 0\n1\n2\n")
	f.Add("42\n")
	f.Add("# core 0\n99999999999999999999999999\n")
	f.Add("# core 0\n4294967295\n") // the largest page ID: accepted
	f.Add("# core 0\n4294967296\n") // one past it: refused
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ReadText(bytes.NewReader([]byte(s)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteText(&out, got); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}
