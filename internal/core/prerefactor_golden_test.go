package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hbmsim/internal/arbiter"
	"hbmsim/internal/model"
	"hbmsim/internal/replacement"
)

// prerefactor_golden_test.go pins the membackend refactor against the
// pre-refactor kernel: testdata/prerefactor_golden.json holds FNV-1a
// hashes of the Result (as JSON) and the full Observer event stream for
// every policy × arbiter × mapping × fetch-latency cell, captured from
// the kernel BEFORE the far channel was lifted behind the Backend
// interface, plus an HBMSNAP v2 snapshot fixture written by that kernel.
// The refactored kernel must reproduce every hash bit-for-bit and resume
// the v2 fixture through the legacy decode path.
//
// Regenerate (only on a conscious tick-semantics change) with:
//
//	HBMSIM_GEN_GOLDEN=1 go test -run TestBackendRefactorDifferential ./internal/core
//
// but note that regenerating from a post-refactor tree weakens the gate
// to self-consistency: the committed file is the pre-refactor capture.

const goldenPath = "testdata/prerefactor_golden.json"
const goldenSnapPath = "testdata/snap_v2.golden"

// kernelGolden is the serialised golden capture.
type kernelGolden struct {
	// Cells maps a matrix-cell name to "resultHash/eventHash".
	Cells map[string]string `json:"cells"`
	// SnapResultHash is the Result hash of the fixture configuration's
	// uninterrupted run; a run resumed from testdata/snap_v2.golden must
	// reproduce it exactly.
	SnapResultHash string `json:"snap_result_hash"`
}

// goldenMatrix returns the named configurations of the differential
// matrix. The workload shape (hit-heavy with rare far jumps) keeps every
// associative cell cruising, so the pin also covers observed cruising.
func goldenMatrix() map[string]Config {
	cells := make(map[string]Config)
	for _, mapping := range Mappings() {
		for _, arb := range arbiter.Kinds() {
			for _, pol := range append(replacement.Kinds(), replacement.Belady) {
				for _, lat := range []int{1, 3} {
					cfg := Config{
						HBMSlots:         32,
						Channels:         2,
						Arbiter:          arb,
						Replacement:      pol,
						Mapping:          mapping,
						Permuter:         arbiter.Dynamic,
						RemapPeriod:      50,
						FetchLatency:     lat,
						Seed:             11,
						CollectHistogram: true,
					}
					cells[fmt.Sprintf("%s/%s/%s/L%d", mapping, arb, pol, lat)] = cfg
				}
			}
		}
	}
	return cells
}

// goldenSnapConfig is the fixture configuration for the v2 snapshot:
// multi-channel, latency 3 (so transfers sit in flight), dynamic
// priority (so the permuter carries rng state).
func goldenSnapConfig() Config {
	return Config{
		HBMSlots: 8, Channels: 2, FetchLatency: 3,
		Arbiter: arbiter.Priority, Permuter: arbiter.Dynamic,
		RemapPeriod: 5, Seed: 42, CollectHistogram: true,
	}
}

// hashLines folds event lines through FNV-1a.
func hashLines(lines []string) string {
	f := newFNV()
	for _, ln := range lines {
		f.str(ln)
	}
	return fmt.Sprintf("%016x", uint64(f))
}

// hashResult hashes the Result's canonical JSON form.
func hashResult(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	f := newFNV()
	f.str(string(b))
	return fmt.Sprintf("%016x", uint64(f))
}

// runCell executes one matrix cell under a full event recorder.
func runCell(t *testing.T, cfg Config, ts [][]model.PageID) (*Sim, string) {
	t.Helper()
	sim, err := New(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	rec := &streamRecorder{}
	sim.SetObserver(rec)
	for sim.Step() {
	}
	return sim, hashResult(t, sim.Result()) + "/" + hashLines(rec.lines)
}

// TestBackendRefactorDifferential pins the refactored kernel, across the
// full policy × arbiter × mapping × fetch-latency matrix, to the Results
// and Observer event streams captured from the pre-refactor kernel — and
// asserts that every associative cell cruises, so the pin covers the
// cruising path's event stream.
func TestBackendRefactorDifferential(t *testing.T) {
	ts := hitHeavyWorkload(3, 400, 5)
	if os.Getenv("HBMSIM_GEN_GOLDEN") == "1" {
		writeGolden(t, ts)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden capture (run with HBMSIM_GEN_GOLDEN=1 to record): %v", err)
	}
	var g kernelGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	cells := goldenMatrix()
	if len(g.Cells) != len(cells) {
		t.Fatalf("golden capture has %d cells, matrix has %d", len(g.Cells), len(cells))
	}
	for name, cfg := range cells {
		sim, got := runCell(t, cfg, ts)
		if want := g.Cells[name]; got != want {
			t.Errorf("%s: diverged from pre-refactor kernel: got %s want %s", name, got, want)
		}
		if cfg.Mapping != MappingDirect && sim.CruisedServes() == 0 {
			t.Errorf("%s: nothing cruised on a hit-heavy associative cell", name)
		}
	}

	// Legacy decode: the HBMSNAP v2 fixture written by the pre-refactor
	// kernel must resume through the version-2 path and finish with the
	// pre-refactor Result.
	f, err := os.Open(goldenSnapPath)
	if err != nil {
		t.Fatalf("missing v2 snapshot fixture: %v", err)
	}
	defer f.Close()
	sim, err := Resume(f, goldenSnapConfig(), checkpointWorkload())
	if err != nil {
		t.Fatalf("resuming v2 fixture: %v", err)
	}
	for sim.Step() {
	}
	if got := hashResult(t, sim.Result()); got != g.SnapResultHash {
		t.Errorf("v2-resumed result hash %s, pre-refactor run recorded %s", got, g.SnapResultHash)
	}
}

// writeGolden records the capture from the current tree.
func writeGolden(t *testing.T, ts [][]model.PageID) {
	t.Helper()
	g := kernelGolden{Cells: make(map[string]string)}
	for name, cfg := range goldenMatrix() {
		_, h := runCell(t, cfg, ts)
		g.Cells[name] = h
	}

	// The snapshot fixture: run the fixture config to a mid-run Step
	// boundary, snapshot, then finish the run for the expected Result.
	cfg := goldenSnapConfig()
	sim, err := New(cfg, checkpointWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for sim.Tick() < 40 && sim.Step() {
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	for sim.Step() {
	}
	g.SnapResultHash = hashResult(t, sim.Result())

	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenSnapPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %d cells to %s and fixture %s", len(g.Cells), goldenPath, goldenSnapPath)
}
