package serve

import (
	"encoding/json"
	"fmt"
	"strconv"

	"hbmsim/internal/durable"
)

// manifest is the service's append-only job journal: one JSON line per
// event (submission, start, terminal outcome), fsynced before the event
// is acknowledged. It is the single source of truth for crash recovery —
// a job is exactly as durable as its manifest records:
//
//   - a "submit" record with no terminal record is an unfinished job;
//     restart re-enqueues it (running jobs rewind to queued and resume
//     from their sweep journal or checkpoint snapshot);
//   - a terminal record ("done"/"failed"/"cancelled") freezes the job,
//     result payload included; restart never re-runs it.
//
// Like sweep.Journal, the file is a durable.Log: a torn final line or a
// corrupt record ends it on recovery, and a failed append is rewound.
// Unlike sweep.Journal there is no keying — records are an ordered
// event log replayed front to back.
type manifest struct {
	log *durable.Log
}

// fpHex is a job fingerprint on the manifest wire: a 16-digit hex JSON
// string, so the all-zero fingerprint — a legitimate FNV output — is
// encoded like any other value instead of being dropped by omitempty
// (which silently turned such jobs into "never started" on recovery).
// Decoding also accepts the bare JSON number older manifests recorded.
type fpHex uint64

func (f fpHex) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", fmt.Sprintf("%016x", uint64(f)))), nil
}

func (f *fpHex) UnmarshalJSON(b []byte) error {
	if len(b) >= 2 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return fmt.Errorf("serve: fingerprint %q is not hex: %w", s, err)
		}
		*f = fpHex(v)
		return nil
	}
	// Legacy form: a decimal JSON number (pre-hex manifests).
	var v uint64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = fpHex(v)
	return nil
}

// manifestRecord is one line of the manifest.
type manifestRecord struct {
	// Op is "submit", "start", or "finish".
	Op string `json:"op"`
	ID uint64 `json:"id"`
	// Spec accompanies "submit"; Fingerprint accompanies "start" — as a
	// pointer, so presence (not a non-zero value) is what marks a job as
	// started, and the all-zero fingerprint round-trips.
	Spec        *Spec  `json:"spec,omitempty"`
	Fingerprint *fpHex `json:"fingerprint,omitempty"`
	// State and the outcome fields accompany "finish". CacheHit marks a
	// job answered from the result cache instead of simulated.
	State    State    `json:"state,omitempty"`
	Error    string   `json:"error,omitempty"`
	Result   *Payload `json:"result,omitempty"`
	CacheHit bool     `json:"cache_hit,omitempty"`
	// Unix is the event's wall-clock second, for operators reading the
	// file; recovery ignores it.
	Unix int64 `json:"unix,omitempty"`
}

// openManifest opens (creating if needed) the manifest at path and
// replays every intact record into the returned slice; recovery and the
// directory fsync are durable.OpenLog's.
func openManifest(path string) (*manifest, []manifestRecord, error) {
	var recs []manifestRecord
	l, err := durable.OpenLog(path, decodeRecord(&recs))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening manifest: %w", err)
	}
	return &manifest{log: l}, recs, nil
}

// openManifestFile is openManifest over an already-open file, split out
// for fault-injection tests.
func openManifestFile(f durable.File) (*manifest, []manifestRecord, error) {
	var recs []manifestRecord
	l, err := durable.NewLog(f, decodeRecord(&recs))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening manifest: %w", err)
	}
	return &manifest{log: l}, recs, nil
}

// decodeRecord is the manifest's durable.Log accept function: it
// appends each intact record to recs and rejects the first corrupt one,
// which poisons trust in everything after it.
func decodeRecord(recs *[]manifestRecord) func(line []byte) bool {
	return func(line []byte) bool {
		var rec manifestRecord
		if json.Unmarshal(line, &rec) != nil || rec.Op == "" || rec.ID == 0 {
			return false
		}
		*recs = append(*recs, rec)
		return true
	}
}

// append writes one record and syncs it to stable storage. The record is
// durable when append returns — the caller may then acknowledge the
// event to the submitter. A failed append leaves no partial bytes.
func (m *manifest) append(rec manifestRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: encoding manifest record: %w", err)
	}
	if err := m.log.Append(line); err != nil {
		return fmt.Errorf("serve: appending manifest record: %w", err)
	}
	return nil
}

// Close closes the underlying file. Appending after Close fails.
func (m *manifest) Close() error { return m.log.Close() }
