package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"hbmsim/internal/core"
	"hbmsim/internal/durable"
	"hbmsim/internal/trace"
)

// Journal is a crash-tolerant, append-only log of completed sweep rows.
// Each successfully finished job is appended as one JSON line keyed by
// (job name, config hash, workload hash), and a sweep restarted with
// Options.Resume skips every journaled job — so a killed hbmsweep run
// re-executes only the points it had not finished.
//
// Keys use the same ConfigHash/WorkloadHash fingerprints the checkpoint
// format uses, so a journal row is only ever replayed into a job with the
// identical configuration and traces; renaming a job or touching its
// config re-runs it. Workload hashes are cached per *trace.Workload, so
// a thousand jobs sharing one workload hash it once.
//
// The file is a durable.Log: on open, a torn final line (the process
// died mid-append) or trailing garbage is truncated away and every
// intact row before it is kept, and a failed append is rewound before
// Record returns.
type Journal struct {
	mu     sync.Mutex
	log    *durable.Log
	seen   map[string]*core.Result
	wlHash wlHashes
}

// journalEntry is the on-disk form of one completed row.
type journalEntry struct {
	Key    string       `json:"key"`
	Result *core.Result `json:"result"`
}

// OpenJournal opens (creating if needed) the journal at path and loads
// every intact row; recovery and the directory fsync are
// durable.OpenLog's.
func OpenJournal(path string) (*Journal, error) {
	j := newJournal()
	l, err := durable.OpenLog(path, j.load)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening journal: %w", err)
	}
	j.log = l
	return j, nil
}

// openJournalFile is OpenJournal over an already-open file, split out
// so fault-injection tests can hand in a failing durable.File.
func openJournalFile(f durable.File) (*Journal, error) {
	j := newJournal()
	l, err := durable.NewLog(f, j.load)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening journal: %w", err)
	}
	j.log = l
	return j, nil
}

func newJournal() *Journal {
	return &Journal{
		seen:   make(map[string]*core.Result),
		wlHash: make(wlHashes),
	}
}

// load is the journal's durable.Log accept function: it indexes one
// intact row and rejects the first corrupt one, which poisons trust in
// everything after it.
func (j *Journal) load(line []byte) bool {
	var e journalEntry
	if json.Unmarshal(line, &e) != nil || e.Key == "" || e.Result == nil {
		return false
	}
	j.seen[e.Key] = e.Result
	return true
}

// wlHashes caches core.WorkloadHash per workload for journal keys.
type wlHashes map[*trace.Workload]uint64

// key fingerprints a job. Cache hits make this a map lookup plus one
// small hash even for huge workloads.
func (c wlHashes) key(job Job) string {
	h, ok := c[job.Workload]
	if !ok {
		h = core.WorkloadHash(job.Workload.Raw())
		c[job.Workload] = h
	}
	return fmt.Sprintf("%s|%016x|%016x", job.Name, core.ConfigHash(job.Config), h)
}

// Lookup returns the journaled result for the job, if one exists.
func (j *Journal) Lookup(job Job) (*core.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	res, ok := j.seen[j.wlHash.key(job)]
	return res, ok
}

// Record appends one completed row and syncs it to stable storage, so a
// crash immediately after a job finishes cannot lose it. A failed append
// leaves no partial bytes and does not mark the row as journaled.
func (j *Journal) Record(job Job, res *core.Result) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	key := j.wlHash.key(job)
	line, err := json.Marshal(journalEntry{Key: key, Result: res})
	if err != nil {
		return err
	}
	if err := j.log.Append(line); err != nil {
		return fmt.Errorf("sweep: appending journal row: %w", err)
	}
	j.seen[key] = res
	return nil
}

// Len returns the number of rows currently journaled.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.seen)
}

// Close closes the underlying file. Recording after Close fails.
func (j *Journal) Close() error { return j.log.Close() }

// RewriteCanonical atomically replaces the journal at path with exactly
// the given rows' successful results, in row order — the merge step of
// a sharded sweep. Rows with a nil Result or a non-nil Err are skipped,
// matching the append-path rule that only successful rows are
// journaled; a single-node sweep run with one worker journals rows in
// this same (job) order, so the rewritten file is byte-identical to the
// journal that run would have produced. The replacement is
// durable.WriteFile's, so a crash leaves the old journal or the new one.
func RewriteCanonical(path string, rows []Row) error {
	wlHash := make(wlHashes)
	err := durable.WriteFile(path, func(w io.Writer) error {
		for i := range rows {
			if rows[i].Err != nil || rows[i].Result == nil {
				continue
			}
			line, err := json.Marshal(journalEntry{Key: wlHash.key(rows[i].Job), Result: rows[i].Result})
			if err != nil {
				return err
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sweep: writing canonical journal: %w", err)
	}
	return nil
}
