// Package resultcache is a content-addressed store of finished job
// payloads, keyed by the job's identity fingerprint.
//
// The fingerprint machinery (core.ConfigHash / core.WorkloadHash folded
// per job kind, see serve.Spec.Fingerprint) already names a simulation
// by its complete inputs: an identical sim, sweep, or experiment job —
// submitted by anyone, on any node — hashes to the same key, and the
// simulator is deterministic in those inputs, so the cached payload IS
// the answer. Design-space studies re-run thousands of near-identical
// configuration points; the cache answers the identical ones for free
// instead of re-simulating them.
//
// The store is a flat directory of one file per fingerprint, written
// with durable.WriteFile (temp file + fsync + rename + directory
// fsync), each self-verifying: a JSON header line carrying
// the key, the payload length, and an FNV-1a checksum precedes the
// payload bytes. Get re-verifies all three and treats any mismatch as a
// miss, deleting the bad entry — a torn or bit-rotted file can serve a
// wrong answer to no one. Entries are immutable once written; Put to an
// existing key atomically replaces it with identical content.
package resultcache

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"hbmsim/internal/durable"
)

// Store is a content-addressed payload cache rooted at one directory.
// All methods are safe for concurrent use.
type Store struct {
	dir string
	mu  sync.Mutex
}

// header is the first line of every entry file.
type header struct {
	// Key is the entry's fingerprint, hex-encoded; Get rejects a file
	// whose header key disagrees with its filename (a copy gone wrong).
	Key string `json:"key"`
	// Len is the payload's byte length; Sum is its FNV-1a hash, hex.
	Len int    `json:"len"`
	Sum string `json:"sum"`
}

// Open opens (creating if needed) the store directory. The directory's
// parent is fsynced so a freshly created cache survives a crash.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := durable.SyncDir(filepath.Dir(dir)); err != nil {
		return nil, fmt.Errorf("resultcache: syncing parent directory: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(fp uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%016x.res", fp))
}

func payloadSum(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Get returns the payload stored under fp. A missing entry is
// (nil, false, nil); a corrupt one — torn header, short payload, bad
// checksum, mismatched key — is treated the same and deleted, so the
// store self-heals instead of serving a wrong answer. Only an I/O error
// reading an apparently intact file is surfaced.
func (s *Store) Get(fp uint64) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.path(fp)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	payload, err := readEntry(f, fp)
	if err != nil {
		if _, ok := err.(*corruptError); ok {
			os.Remove(path) // self-heal; the next Put rewrites it
			return nil, false, nil
		}
		return nil, false, err
	}
	return payload, true, nil
}

// corruptError marks an entry Get should treat as absent.
type corruptError struct{ why string }

func (e *corruptError) Error() string { return "resultcache: corrupt entry: " + e.why }

func readEntry(f io.Reader, fp uint64) ([]byte, error) {
	br := bufio.NewReader(f)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, &corruptError{"torn header"}
	}
	var h header
	if json.Unmarshal([]byte(line), &h) != nil {
		return nil, &corruptError{"unparseable header"}
	}
	if h.Key != fmt.Sprintf("%016x", fp) {
		return nil, &corruptError{"key mismatch"}
	}
	if h.Len < 0 {
		return nil, &corruptError{"negative length"}
	}
	// Read what the file holds rather than allocating the header's
	// length up front: a corrupt length must not crash the process.
	payload, err := io.ReadAll(br)
	if err != nil || len(payload) < h.Len {
		return nil, &corruptError{"short payload"}
	}
	if len(payload) > h.Len {
		return nil, &corruptError{"trailing bytes past the declared length"}
	}
	if payloadSum(payload) != h.Sum {
		return nil, &corruptError{"checksum mismatch"}
	}
	return payload, nil
}

// Put stores payload under fp, atomically and durably, with
// durable.WriteFile. An existing entry is replaced (identical inputs
// produce identical payloads, so this is a no-op in content).
func (s *Store) Put(fp uint64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, err := json.Marshal(header{
		Key: fmt.Sprintf("%016x", fp),
		Len: len(payload),
		Sum: payloadSum(payload),
	})
	if err != nil {
		return err
	}
	err = durable.WriteFile(s.path(fp), func(w io.Writer) error {
		if _, err := w.Write(append(h, '\n')); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		return fmt.Errorf("resultcache: writing entry: %w", err)
	}
	return nil
}

// Len counts intact-looking entries (by filename; contents are only
// verified on Get). For operators and tests.
func (s *Store) Len() (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".res") {
			n++
		}
	}
	return n, nil
}
