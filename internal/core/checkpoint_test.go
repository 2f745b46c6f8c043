package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
	"hbmsim/internal/snap"
)

// streamRecorder captures the full Observer event stream as formatted lines, so
// two runs can be compared element-wise (observer_test.go has a smaller one).
type streamRecorder struct {
	lines []string
}

func (r *streamRecorder) OnQueue(c model.CoreID, p model.PageID, t model.Tick) {
	r.lines = append(r.lines, fmt.Sprintf("queue c=%d p=%d t=%d", c, p, t))
}
func (r *streamRecorder) OnGrant(c model.CoreID, p model.PageID, t, wait model.Tick) {
	r.lines = append(r.lines, fmt.Sprintf("grant c=%d p=%d t=%d wait=%d", c, p, t, wait))
}
func (r *streamRecorder) OnServe(c model.CoreID, p model.PageID, t, resp model.Tick) {
	r.lines = append(r.lines, fmt.Sprintf("serve c=%d p=%d t=%d resp=%d", c, p, t, resp))
}
func (r *streamRecorder) OnFetch(c model.CoreID, p model.PageID, t model.Tick) {
	r.lines = append(r.lines, fmt.Sprintf("fetch c=%d p=%d t=%d", c, p, t))
}
func (r *streamRecorder) OnEvict(p model.PageID, t model.Tick) {
	r.lines = append(r.lines, fmt.Sprintf("evict p=%d t=%d", p, t))
}
func (r *streamRecorder) OnRemap(t model.Tick, old, new []int32) {
	r.lines = append(r.lines, fmt.Sprintf("remap t=%d old=%v new=%v", t, old, new))
}
func (r *streamRecorder) OnTickEnd(t model.Tick, depth, busy int) {
	r.lines = append(r.lines, fmt.Sprintf("tick t=%d depth=%d busy=%d", t, depth, busy))
}

// checkpointWorkload builds a 4-core workload with per-core locality and
// enough reuse to exercise every policy's eviction path against 8 slots.
func checkpointWorkload() [][]model.PageID {
	const p, refs, span = 4, 60, 7
	ts := make([][]model.PageID, p)
	seed := uint64(12345)
	for c := range ts {
		tr := make([]model.PageID, refs)
		for i := range tr {
			seed = seed*6364136223846793005 + 1442695040888963407
			// Mostly a small working set, with occasional far jumps so
			// direct-mapped slots conflict and Belady has real choices.
			page := int(seed>>33) % span
			if seed%11 == 0 {
				page += span * (1 + int(seed>>50)%3)
			}
			tr[i] = model.PageID(c*1000 + page)
		}
		ts[c] = tr
	}
	return ts
}

// runRecorded steps the simulator to completion under a fresh streamRecorder and
// returns the streamRecorder and final result.
func runRecorded(s *Sim) (*streamRecorder, *Result) {
	rec := &streamRecorder{}
	s.SetObserver(rec)
	for s.Step() {
	}
	return rec, s.Result()
}

// TestCheckpointResumeBitIdentical is the tentpole guarantee: for every
// replacement policy x arbiter x mapping, checkpointing mid-run and
// resuming in a fresh simulator yields a Result and an element-wise
// Observer event stream identical to the uninterrupted run.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	policies := append(replacement.Kinds(), replacement.Belady)
	ts := checkpointWorkload()
	for _, mapping := range Mappings() {
		for _, arb := range arbiter.Kinds() {
			for _, pol := range policies {
				cfg := Config{
					HBMSlots:         8,
					Channels:         2,
					FetchLatency:     3,
					Arbiter:          arb,
					Replacement:      pol,
					Mapping:          mapping,
					Permuter:         arbiter.Dynamic,
					RemapPeriod:      5,
					Seed:             42,
					CollectHistogram: true,
				}
				name := fmt.Sprintf("%s/%s/%s", mapping, arb, pol)
				t.Run(name, func(t *testing.T) {
					testCheckpointResume(t, cfg, ts)
				})
			}
		}
	}
}

func testCheckpointResume(t *testing.T, cfg Config, ts [][]model.PageID) {
	t.Helper()

	// Uninterrupted reference run.
	ref, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	recRef, resRef := runRecorded(ref)

	// Interrupted run: step partway, checkpoint, keep going.
	interrupted, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	recInt := &streamRecorder{}
	interrupted.SetObserver(recInt)
	// Declare the checkpoint cadence so a cruising run cannot jump past
	// the checkpoint tick mid-stretch (the uninterrupted run stays
	// unbounded — the constraint must not change what is simulated).
	const ckptTick = 9
	interrupted.SetBoundary(ckptTick)
	for interrupted.Tick() < ckptTick && interrupted.Step() {
	}
	if interrupted.Done() {
		t.Fatalf("workload too short: done before tick %d", ckptTick)
	}
	if got := interrupted.Tick(); got != ckptTick {
		t.Fatalf("stepping overshot the checkpoint tick: at %d, want %d", got, ckptTick)
	}
	prefixLen := len(recInt.lines)
	var buf, buf2 bytes.Buffer
	if err := interrupted.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := interrupted.Checkpoint(&buf2); err != nil {
		t.Fatalf("second Checkpoint: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two checkpoints of the same state differ")
	}
	for interrupted.Step() {
	}
	resInt := interrupted.Result()

	// Checkpointing must not perturb the run it interrupts.
	if !reflect.DeepEqual(resInt, resRef) {
		t.Fatalf("checkpointing perturbed the run:\n got %+v\nwant %+v", resInt, resRef)
	}
	diffLines(t, "interrupted", recInt.lines, recRef.lines)

	// Resumed run must replay exactly the reference suffix.
	resumed, err := Resume(&buf, cfg, ts)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if got := resumed.Tick(); got != ckptTick {
		t.Fatalf("resumed at tick %d, checkpointed at %d", got, ckptTick)
	}
	recRes, resRes := runRecorded(resumed)
	if !reflect.DeepEqual(resRes, resRef) {
		t.Fatalf("resumed result differs:\n got %+v\nwant %+v", resRes, resRef)
	}
	if want := len(recRef.lines) - prefixLen; len(recRes.lines) != want {
		t.Fatalf("resumed run emitted %d events, want %d", len(recRes.lines), want)
	}
	diffLines(t, "resumed", recRes.lines, recRef.lines[prefixLen:])
}

func diffLines(t *testing.T, label string, got, want []string) {
	t.Helper()
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("%s event %d differs:\n got %q\nwant %q", label, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s run emitted %d events, want %d", label, len(got), len(want))
	}
}

// TestCheckpointAtCompletion resumes a finished simulation: no further
// steps, identical result.
func TestCheckpointAtCompletion(t *testing.T) {
	cfg := Config{HBMSlots: 8, Channels: 1, Seed: 7}
	ts := traces([]int{0, 1, 2, 0, 1})
	s, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	for s.Step() {
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(&buf, cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Fatal("resumed sim should be done")
	}
	if r.Step() {
		t.Fatal("Step on resumed finished sim should return false")
	}
	if !reflect.DeepEqual(r.Result(), s.Result()) {
		t.Fatal("resumed result differs from original")
	}
}

// TestCheckpointFingerprintCached pins the fingerprint a Sim computes once
// and reuses: every checkpoint of one Sim, whatever its tick, and every
// checkpoint of a Sim resumed from one carries Fingerprint(cfg, raw),
// and Resume still refuses a different workload.
func TestCheckpointFingerprintCached(t *testing.T) {
	cfg := Config{HBMSlots: 8, Channels: 1, Seed: 1}
	ts := checkpointWorkload() // sparse IDs, so the dense ones translate back
	want := Fingerprint(cfg, ts)
	header := func(b []byte) uint64 {
		t.Helper()
		r := snap.NewReader(bytes.NewReader(b))
		var magic [8]byte
		r.Raw(magic[:])
		r.U64() // format version
		fp := r.U64()
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		return fp
	}
	checkpoint := func(s *Sim) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if fp := header(buf.Bytes()); fp != want {
			t.Fatalf("checkpoint at tick %d carries fingerprint %#x, want %#x", s.Tick(), fp, want)
		}
		return buf.Bytes()
	}

	s, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	var snaps [][]byte
	for i := 0; ; i++ {
		if i%25 == 0 {
			snaps = append(snaps, checkpoint(s))
		}
		if !s.Step() {
			break
		}
	}
	snaps = append(snaps, checkpoint(s))
	if len(snaps) < 3 {
		t.Fatalf("only %d checkpoints taken", len(snaps))
	}

	r, err := Resume(bytes.NewReader(snaps[1]), cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && r.Step(); i++ {
	}
	checkpoint(r)

	other := make([][]model.PageID, len(ts))
	for i, tr := range ts {
		other[i] = append([]model.PageID(nil), tr...)
	}
	other[3][len(other[3])-1] = 3999 // a page core 3 never referenced
	for _, b := range snaps {
		if _, err := Resume(bytes.NewReader(b), cfg, other); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("resume under a different workload: got %v, want ErrSnapshotMismatch", err)
		}
	}
}

// TestResumeRefusesMismatch pins the fingerprint check: a snapshot resumed
// under a different Config or workload is refused.
func TestResumeRefusesMismatch(t *testing.T) {
	cfg := Config{HBMSlots: 8, Channels: 1, Seed: 1}
	ts := traces([]int{0, 1, 2, 3, 4, 5})
	s, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Seed = 2
	if _, err := Resume(bytes.NewReader(buf.Bytes()), other, ts); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("config mismatch: got %v, want ErrSnapshotMismatch", err)
	}
	ts2 := traces([]int{0, 1, 2, 3, 4, 6})
	if _, err := Resume(bytes.NewReader(buf.Bytes()), cfg, ts2); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("workload mismatch: got %v, want ErrSnapshotMismatch", err)
	}
	// The defaulted and explicit spellings of one config must fingerprint
	// identically.
	explicit := cfg.withDefaults()
	if _, err := Resume(bytes.NewReader(buf.Bytes()), explicit, ts); err != nil {
		t.Fatalf("defaulted config should resume: %v", err)
	}
}

// TestResumeRejectsDamage pins the corruption-safety contract: truncated
// or bit-flipped snapshots produce an error, never a panic or a silently
// wrong simulator.
func TestResumeRejectsDamage(t *testing.T) {
	cfg := Config{HBMSlots: 8, Channels: 2, FetchLatency: 2, Seed: 3,
		Arbiter: arbiter.Random, Replacement: replacement.Random}
	ts := checkpointWorkload()
	s, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		s.Step()
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snapBytes := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, 8, 16, len(snapBytes) / 2, len(snapBytes) - 1} {
			if _, err := Resume(bytes.NewReader(snapBytes[:n]), cfg, ts); err == nil {
				t.Fatalf("truncation to %d bytes should fail", n)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for _, off := range []int{18, len(snapBytes) / 3, len(snapBytes) / 2, len(snapBytes) - 4} {
			mangled := bytes.Clone(snapBytes)
			mangled[off] ^= 0x40
			if _, err := Resume(bytes.NewReader(mangled), cfg, ts); err == nil {
				t.Fatalf("bit flip at offset %d should fail", off)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		mangled := bytes.Clone(snapBytes)
		mangled[0] = 'X'
		if _, err := Resume(bytes.NewReader(mangled), cfg, ts); err == nil {
			t.Fatal("bad magic should fail")
		}
	})
}
