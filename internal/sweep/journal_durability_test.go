package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// faultFile wraps a real journal file with injectable write/sync
// failures. /dev/full cannot stand in here: writes to it never
// partially succeed (and reads never terminate), while the bug class
// under test is exactly a partially persisted append.
type faultFile struct {
	*os.File
	// failWriteAfter, when >= 0, makes the next Write persist that many
	// bytes and then fail with ENOSPC (then disarms).
	failWriteAfter int
	// failSync makes the next Sync fail with ENOSPC (then disarms).
	failSync bool
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.failWriteAfter >= 0 {
		n := f.failWriteAfter
		if n > len(p) {
			n = len(p)
		}
		f.failWriteAfter = -1
		n, _ = f.File.Write(p[:n])
		return n, syscall.ENOSPC
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return syscall.ENOSPC
	}
	return f.File.Sync()
}

// seedJournal records rows[:n] through the normal path and returns the
// rows it computed.
func seedJournal(t *testing.T, path string, jobs []Job, n int) []Row {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := RunContext(context.Background(), jobs[:n], Options{Workers: 1})
	for i, r := range rows {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if err := j.Record(jobs[i], r.Result); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestJournalRecordENOSPCRewind is the torn-tail-poisoning regression:
// an append that fails partway (ENOSPC after some bytes landed) must be
// rewound to the pre-write offset, so the next successful append starts
// on a clean boundary instead of concatenating onto the torn line —
// which lenient reopen would discard together with the new row.
func TestJournalRecordENOSPCRewind(t *testing.T) {
	jobs := journalJobs(3)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	seedJournal(t, path, jobs, 1)

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	ff := &faultFile{File: f, failWriteAfter: -1}
	j, err := openJournalFile(ff)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	row1 := runJob(jobs[1])
	if row1.Err != nil {
		t.Fatal(row1.Err)
	}
	ff.failWriteAfter = 7 // seven torn bytes land, then the disk is full
	err = j.Record(jobs[1], row1.Result)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Record under ENOSPC returned %v, want ENOSPC", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed append left %d bytes (want %d): the torn tail was not rewound",
			len(after), len(before))
	}
	if _, ok := j.Lookup(jobs[1]); ok {
		t.Fatal("failed append must not mark the row as journaled")
	}

	// The next append (disk recovered) lands cleanly and both rows
	// survive a reopen.
	if err := j.Record(jobs[1], row1.Result); err != nil {
		t.Fatalf("append after rewind: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("after rewind + append: %d rows, want 2", j2.Len())
	}
	if res, ok := j2.Lookup(jobs[1]); !ok || !reflect.DeepEqual(res, row1.Result) {
		t.Fatal("row appended after the rewind was lost or corrupted")
	}
}

// TestJournalRecordSyncFailureRewind: a fully written line whose fsync
// fails is not durable; Record must report the error and rewind it so
// the in-memory index never claims a row the disk may not have.
func TestJournalRecordSyncFailureRewind(t *testing.T) {
	jobs := journalJobs(2)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	seedJournal(t, path, jobs, 1)

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	ff := &faultFile{File: f, failWriteAfter: -1}
	j, err := openJournalFile(ff)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)

	row1 := runJob(jobs[1])
	ff.failSync = true
	if err := j.Record(jobs[1], row1.Result); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Record under failing sync returned %v, want ENOSPC", err)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Fatal("unsynced append was not rewound")
	}
	j.Close()
}

// TestJournalRecoveryCrashWindow pins the recovery-then-crash window:
// after lenient recovery truncates a torn tail, a process killed before
// its first new append (simulated by closing without writing) must
// leave a file that recovers to the identical state — the truncation is
// fsynced, so the torn bytes cannot come back.
func TestJournalRecoveryCrashWindow(t *testing.T) {
	jobs := journalJobs(3)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	rows := seedJournal(t, path, jobs, 2)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"job-2|torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// First recovery truncates the torn tail... and the process dies
	// before appending anything.
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("recovered %d rows, want 2", j.Len())
	}
	j.Close()
	if got, _ := os.ReadFile(path); !bytes.Equal(got, clean) {
		t.Fatalf("post-recovery file is %d bytes, want the %d clean bytes", len(got), len(clean))
	}

	// Double reopen: repeated lenient recoveries are byte-stable.
	for i := 0; i < 2; i++ {
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopen %d: %v", i, err)
		}
		if j.Len() != 2 {
			t.Fatalf("reopen %d: %d rows, want 2", i, j.Len())
		}
		if res, ok := j.Lookup(jobs[1]); !ok || !reflect.DeepEqual(res, rows[1].Result) {
			t.Fatalf("reopen %d lost row 1", i)
		}
		j.Close()
		if got, _ := os.ReadFile(path); !bytes.Equal(got, clean) {
			t.Fatalf("reopen %d changed the file bytes", i)
		}
	}
}

// TestRewriteCanonical pins the sharded-merge contract: rewriting a
// journal from rows in job order produces bytes identical to recording
// those rows sequentially, error rows are skipped (only successful rows
// are ever journaled), and the rewrite atomically replaces whatever was
// at the path.
func TestRewriteCanonical(t *testing.T) {
	jobs := journalJobs(4)
	dir := t.TempDir()

	// Reference: sequential Record in job order.
	refPath := filepath.Join(dir, "ref.journal")
	rows := make([]Row, len(jobs))
	ref, err := OpenJournal(refPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		rows[i] = runJob(jobs[i])
		if rows[i].Err != nil {
			t.Fatal(rows[i].Err)
		}
		if err := ref.Record(jobs[i], rows[i].Result); err != nil {
			t.Fatal(err)
		}
	}
	ref.Close()
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// RewriteCanonical over stale content (a previous partial run) must
	// fully replace it.
	path := filepath.Join(dir, "merged.journal")
	seedJournal(t, path, jobs[2:3], 1)
	if err := RewriteCanonical(path, rows); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical rewrite differs from sequential journal:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	// Error rows are skipped, like the append path.
	withErr := append([]Row(nil), rows...)
	withErr[1].Err = errors.New("boom")
	withErr[1].Result = nil
	if err := RewriteCanonical(path, withErr); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != len(jobs)-1 {
		t.Fatalf("rewrite with one error row journaled %d rows, want %d", j.Len(), len(jobs)-1)
	}
	if _, ok := j.Lookup(jobs[1]); ok {
		t.Fatal("error row must not be journaled")
	}
}
