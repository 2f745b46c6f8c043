package resultcache

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzReadEntry: arbitrary entry bytes never panic readEntry, and a
// payload it returns has the length and checksum its header declares.
func FuzzReadEntry(f *testing.F) {
	const fp = 0x11
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(fp, []byte("the payload bytes")); err != nil {
		f.Fatal(err)
	}
	entry, err := os.ReadFile(s.path(fp))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry)
	f.Add(bytes.Replace(entry, []byte(`"len":17`), []byte(`"len":4611686018427387904`), 1))
	f.Add([]byte(`{"key":"0000000000000011","len":-1,"sum":""}` + "\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readEntry(bytes.NewReader(data), fp)
		if err != nil {
			return
		}
		line, _, _ := bytes.Cut(data, []byte("\n"))
		var h header
		if err := json.Unmarshal(line, &h); err != nil {
			t.Fatalf("accepted an entry whose header does not parse: %v", err)
		}
		if len(payload) != h.Len || payloadSum(payload) != h.Sum {
			t.Fatalf("payload has %d bytes, sum %s; header declares %d, %s",
				len(payload), payloadSum(payload), h.Len, h.Sum)
		}
	})
}
