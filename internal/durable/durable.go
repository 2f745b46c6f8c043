// Package durable holds the repo's two crash-safe file disciplines, so
// every writer of state that must survive a crash makes the same writes
// in the same order:
//
//   - WriteFile replaces a whole file atomically: temp file, fsync,
//     rename, directory fsync. A crash leaves either the old bytes or
//     the new ones at the path, never a torn mix. Checkpoints, served
//     snapshots, result-cache entries, flight-recorder dumps, the
//     address file, the canonical sweep journal and saved workloads
//     are written this way.
//   - Log is an append-only file of newline-terminated records, each
//     fsynced before Append returns. The sweep journal and the service
//     manifest are Logs.
//
// Log recovery is lenient. A torn final line (the process died
// mid-append), or the first line the owner's accept function rejects,
// ends the log: it and everything after it are truncated away, and the
// truncation is fsynced, so a crash right after recovery cannot
// resurrect the discarded bytes. A failed Append is rewound the same
// way, so partial bytes never poison the next record (without the
// rewind, the next record would concatenate onto the torn line and the
// next recovery would discard both).
package durable

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// SyncDir fsyncs a directory so a just-created or just-renamed entry in
// it survives a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFile atomically replaces path with the bytes write produces. It
// writes path+".tmp", fsyncs and closes it, renames it over path and
// fsyncs the directory. On any error the temp file is removed and the
// old contents of path, if any, are left in place.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// File is the file surface a Log needs. *os.File satisfies it;
// fault-injection tests substitute wrappers whose writes fail partway
// through, the one failure shape /dev/full cannot produce (writes to it
// never partially succeed, and reads from it never end).
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(int64) error
}

// Log is an append-only, fsynced file of newline-terminated records.
// All methods are safe for concurrent use.
type Log struct {
	mu  sync.Mutex
	f   File
	off int64 // durable end offset: intact, fsynced records end here
}

// OpenLog opens (creating if needed) the log at path and recovers it as
// NewLog does. It then fsyncs the parent directory, so a freshly created
// log survives a crash immediately after open.
func OpenLog(path string, accept func(line []byte) bool) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	l, err := NewLog(f, accept)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("syncing log directory: %w", err)
	}
	return l, nil
}

// NewLog recovers the log held by the already-open f. It passes each
// complete line, without its newline, to accept, in file order, and
// stops at the first line accept rejects or at a final line with no
// newline. Everything from there on is truncated away and the
// truncation fsynced; the file is left positioned at its end, ready for
// Append.
func NewLog(f File, accept func(line []byte) bool) (*Log, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	br := bufio.NewReader(f)
	var good int64
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			break // a partial final line is a torn append; drop it
		}
		if err != nil {
			return nil, fmt.Errorf("reading log: %w", err)
		}
		if !accept(line[:len(line)-1]) {
			break // a corrupt record poisons trust in everything after it
		}
		good += int64(len(line))
	}
	if err := f.Truncate(good); err != nil {
		return nil, fmt.Errorf("truncating log tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("syncing truncated log: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return nil, err
	}
	return &Log{f: f, off: good}, nil
}

// Append writes line plus a newline and fsyncs it; the record is
// durable when Append returns nil. line must not contain a newline. A
// failed write or sync is rewound: the file is truncated back to the
// end of the last durable record.
func (l *Log) Append(line []byte) error {
	// The full slice expression makes append copy, so the newline never
	// lands in the caller's spare capacity.
	rec := append(line[:len(line):len(line)], '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(rec); err != nil {
		return l.rewindLocked(fmt.Errorf("writing log: %w", err))
	}
	if err := l.f.Sync(); err != nil {
		return l.rewindLocked(fmt.Errorf("syncing log: %w", err))
	}
	l.off += int64(len(rec))
	return nil
}

// rewindLocked truncates a failed append back to the last durable
// offset and returns cause, annotated if the rewind itself failed (the
// log should then be considered poisoned). Callers hold l.mu.
func (l *Log) rewindLocked(cause error) error {
	if err := l.f.Truncate(l.off); err != nil {
		return fmt.Errorf("%w (and rewinding the torn tail failed: %v)", cause, err)
	}
	if _, err := l.f.Seek(l.off, io.SeekStart); err != nil {
		return fmt.Errorf("%w (and rewinding the torn tail failed: %v)", cause, err)
	}
	// Persist the truncation; best-effort: the original failure is what
	// the caller needs to see, and a sync that fails here fails again,
	// and is reported, on the next Append.
	l.f.Sync()
	return cause
}

// Close closes the underlying file. Appending after Close fails.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
