package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"name":"demo","rows":[1,2,3]}`)
	if err := s.Put(0xfeedface, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(0xfeedface)
	if err != nil || !ok {
		t.Fatalf("Get = (%v, %v), want hit", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mangled: %q", got)
	}
	if n, _ := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestStoreMiss(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(42); ok || err != nil {
		t.Fatalf("Get on empty store = (%v, %v), want clean miss", ok, err)
	}
}

// TestStoreZeroFingerprint: fingerprint zero is a legitimate FNV-1a
// output and must be a usable key (the same bug class as the manifest's
// omitempty fingerprint).
func TestStoreZeroFingerprint(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(0, []byte("zero")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(0)
	if err != nil || !ok || string(got) != "zero" {
		t.Fatalf("zero-fingerprint entry lost: (%q, %v, %v)", got, ok, err)
	}
}

func TestStoreOverwrite(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(7, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(7, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s.Get(7)
	if !ok || string(got) != "second" {
		t.Fatalf("overwrite lost: (%q, %v)", got, ok)
	}
	if n, _ := s.Len(); n != 1 {
		t.Fatalf("Len after overwrite = %d, want 1", n)
	}
}

func TestStoreEmptyPayload(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(9, nil); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(9)
	if err != nil || !ok || len(got) != 0 {
		t.Fatalf("empty payload round-trip: (%q, %v, %v)", got, ok, err)
	}
}

// TestStoreSelfHeals: every corruption class — torn header, garbage
// header, short payload, trailing bytes, flipped payload bit, key
// mismatch, a length no allocation can hold — is a miss that deletes
// the entry, never an error, a crash, or a wrong answer.
func TestStoreSelfHeals(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(path string, t *testing.T)
	}{
		{"torn header", func(path string, t *testing.T) {
			writeFile(t, path, []byte(`{"key":"00000000000000`))
		}},
		{"garbage header", func(path string, t *testing.T) {
			writeFile(t, path, []byte("not json\npayload"))
		}},
		{"short payload", func(path string, t *testing.T) {
			b := readFile(t, path)
			writeFile(t, path, b[:len(b)-3])
		}},
		{"trailing bytes", func(path string, t *testing.T) {
			b := readFile(t, path)
			writeFile(t, path, append(b, "extra"...))
		}},
		{"flipped payload bit", func(path string, t *testing.T) {
			b := readFile(t, path)
			b[len(b)-1] ^= 0x40
			writeFile(t, path, b)
		}},
		{"key mismatch", func(path string, t *testing.T) {
			// An entry copied to the wrong filename: its header still
			// names the original key.
			b := bytes.ReplaceAll(readFile(t, path),
				[]byte(`"key":"0000000000000011"`), []byte(`"key":"00000000000000ff"`))
			writeFile(t, path, b)
		}},
		{"huge length", func(path string, t *testing.T) {
			b := bytes.ReplaceAll(readFile(t, path),
				[]byte(`"len":17`), []byte(fmt.Sprintf(`"len":%d`, 1<<62)))
			writeFile(t, path, b)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(filepath.Join(t.TempDir(), "cache"))
			if err != nil {
				t.Fatal(err)
			}
			const fp = 0x11
			if err := s.Put(fp, []byte("the payload bytes")); err != nil {
				t.Fatal(err)
			}
			path := s.path(fp)
			tc.corrupt(path, t)

			got, ok, err := s.Get(fp)
			if err != nil {
				t.Fatalf("corrupt entry surfaced an error: %v", err)
			}
			if ok {
				t.Fatalf("corrupt entry served as a hit: %q", got)
			}
			// Self-healed: the bad file is gone, and a fresh Put + Get
			// works.
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry was not deleted")
			}
			if err := s.Put(fp, []byte("rewritten")); err != nil {
				t.Fatal(err)
			}
			if got, ok, _ := s.Get(fp); !ok || string(got) != "rewritten" {
				t.Fatalf("store did not recover after self-heal: (%q, %v)", got, ok)
			}
		})
	}
}

// TestStoreSurvivesReopen: entries are durable files, so a second Open
// over the same directory sees them.
func TestStoreSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(3, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := s2.Get(3); !ok || string(got) != "persisted" {
		t.Fatalf("reopened store lost the entry: (%q, %v)", got, ok)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") must fail")
	}
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
