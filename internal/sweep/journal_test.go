package sweep

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hbmsim/internal/core"
)

func journalJobs(n int) []Job {
	wl := testWorkload()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Name:     fmt.Sprintf("job-%d", i),
			Config:   core.Config{HBMSlots: 2 + i, Channels: 1, CollectHistogram: true},
			Workload: wl,
		}
	}
	return jobs
}

// TestJournalKilledThenResumed is the crash-tolerance guarantee: a sweep
// cancelled partway through and restarted with Resume produces exactly
// the rows of an uninterrupted sweep, re-running only unfinished jobs.
func TestJournalKilledThenResumed(t *testing.T) {
	jobs := journalJobs(12)
	want := RunContext(context.Background(), jobs, Options{Workers: 2})
	path := filepath.Join(t.TempDir(), "sweep.journal")

	// First attempt: cancel after the 4th completion; jobs already picked
	// up still finish and are journaled.
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	RunContext(ctx, jobs, Options{
		Workers: 2,
		Journal: j1,
		OnProgress: func(p Progress) {
			if p.Completed >= 4 {
				cancel()
			}
		},
	})
	cancel()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart against the same journal.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	finished := j2.Len()
	if finished < 4 || finished >= len(jobs) {
		t.Fatalf("first attempt journaled %d rows, want a strict partial run", finished)
	}
	reran := 0
	got := RunContext(context.Background(), jobs, Options{
		Workers: 2,
		Journal: j2,
		Resume:  true,
		Metrics: nil,
		OnProgress: func(p Progress) {
			reran++
		},
	})
	// First progress update covers the restored rows at once; the rest are
	// one per re-run job.
	if wantCalls := len(jobs) - finished + 1; reran != wantCalls {
		t.Fatalf("progress calls: %d, want %d", reran, wantCalls)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed rows differ from uninterrupted sweep:\n got %+v\nwant %+v", got, want)
	}
	if j2.Len() != len(jobs) {
		t.Fatalf("journal holds %d rows after resume, want %d", j2.Len(), len(jobs))
	}
}

// TestJournalFullyRestoredSweep resumes a sweep whose journal already has
// every row: nothing re-runs, one terminal progress update fires.
func TestJournalFullyRestoredSweep(t *testing.T) {
	jobs := journalJobs(5)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := RunContext(context.Background(), jobs, Options{Workers: 2, Journal: j})
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var updates []Progress
	got := RunContext(context.Background(), jobs, Options{
		Workers:    2,
		Journal:    j2,
		Resume:     true,
		OnProgress: func(p Progress) { updates = append(updates, p) },
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fully restored rows differ")
	}
	if len(updates) != 1 || updates[0].Completed != len(jobs) || updates[0].Total != len(jobs) {
		t.Fatalf("terminal progress: %+v", updates)
	}
}

// TestJournalToleratesTornTail simulates a crash mid-append: trailing
// garbage after the last intact row is discarded on open, rows before it
// survive, and subsequent appends land on a clean tail.
func TestJournalToleratesTornTail(t *testing.T) {
	jobs := journalJobs(3)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := RunContext(context.Background(), jobs[:2], Options{Workers: 1})
	for i, r := range rows {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if err := j.Record(jobs[i], r.Result); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"job-2|dead`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 2 {
		t.Fatalf("after torn tail: %d rows, want 2", j2.Len())
	}
	res, ok := j2.Lookup(jobs[1])
	if !ok || !reflect.DeepEqual(res, rows[1].Result) {
		t.Fatal("intact row lost after torn-tail recovery")
	}
	row2 := runJob(jobs[2])
	if row2.Err != nil {
		t.Fatal(row2.Err)
	}
	if err := j2.Record(jobs[2], row2.Result); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 3 {
		t.Fatalf("after post-recovery append: %d rows, want 3", j3.Len())
	}
}

// TestJournalKeyDiscriminates pins that a journal row is never replayed
// into a job with a different name, config, or workload.
func TestJournalKeyDiscriminates(t *testing.T) {
	jobs := journalJobs(1)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	row := runJob(jobs[0])
	if err := j.Record(jobs[0], row.Result); err != nil {
		t.Fatal(err)
	}

	if _, ok := j.Lookup(jobs[0]); !ok {
		t.Fatal("identical job should hit")
	}
	renamed := jobs[0]
	renamed.Name = "other"
	if _, ok := j.Lookup(renamed); ok {
		t.Fatal("renamed job should miss")
	}
	reconfigured := jobs[0]
	reconfigured.Config.Seed++
	if _, ok := j.Lookup(reconfigured); ok {
		t.Fatal("reconfigured job should miss")
	}
	reworked := jobs[0]
	reworked.Workload = reworked.Workload.Subset(1)
	if _, ok := j.Lookup(reworked); ok {
		t.Fatal("different workload should miss")
	}
}
