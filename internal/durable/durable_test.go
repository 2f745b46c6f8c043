package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileErrorKeepsOldBytes: a writer that fails partway leaves
// the previous contents at the path and no temp file behind.
func TestWriteFileErrorKeepsOldBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "old")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "partial new")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile returned %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
		t.Fatalf("target holds %q (%v), want the old bytes", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestWriteFileMissingDir: a path in a missing directory is an error
// and creates nothing.
func TestWriteFileMissingDir(t *testing.T) {
	dir := t.TempDir()
	err := WriteFile(filepath.Join(dir, "missing", "state"), func(w io.Writer) error {
		_, err := io.WriteString(w, "x")
		return err
	})
	if err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("WriteFile left %v behind (%v)", ents, err)
	}
}

// FuzzLogRecover: over arbitrary file bytes, OpenLog keeps exactly the
// longest prefix of complete, accepted lines and truncates the file to
// it; a reopen recovers the same state; and an Append after recovery is
// accepted by the next reopen. Lines containing '!' are rejected, so
// the fuzzer reaches both ways a log ends: a torn final line and a
// corrupt record.
func FuzzLogRecover(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("a\nb\n"))
	f.Add([]byte("a\nb\ntorn"))
	f.Add([]byte("a\nbad!\nc\n"))
	f.Add([]byte("\n\n!"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The model: walk complete lines until the first rejected one.
		var want []string
		good := 0
		for {
			i := bytes.IndexByte(data[good:], '\n')
			if i < 0 || bytes.IndexByte(data[good:good+i], '!') >= 0 {
				break
			}
			want = append(want, string(data[good:good+i]))
			good += i + 1
		}

		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (*Log, []string) {
			t.Helper()
			var got []string
			l, err := OpenLog(path, func(line []byte) bool {
				if bytes.IndexByte(line, '\n') >= 0 {
					t.Fatalf("accept saw a newline in %q", line)
				}
				if bytes.IndexByte(line, '!') >= 0 {
					return false
				}
				got = append(got, string(line))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			return l, got
		}
		check := func(stage string, got, lines []string, file []byte) {
			t.Helper()
			if len(got) != len(lines) {
				t.Fatalf("%s: recovered %d lines %q, want %q", stage, len(got), got, lines)
			}
			for i := range got {
				if got[i] != lines[i] {
					t.Fatalf("%s: line %d is %q, want %q", stage, i, got[i], lines[i])
				}
			}
			if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, file) {
				t.Fatalf("%s: file holds %q (%v), want %q", stage, b, err, file)
			}
		}

		for _, stage := range []string{"open", "reopen"} {
			l, got := open()
			check(stage, got, want, data[:good])
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}

		l, _ := open()
		if err := l.Append([]byte("appended")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, got := open()
		defer l.Close()
		check("append", got, append(want, "appended"), append(data[:good:good], "appended\n"...))
	})
}
