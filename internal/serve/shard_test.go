package serve

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hbmsim/internal/metrics"
)

// startPeer opens a serve.Service in its own state directory and mounts
// its job API on an httptest server — an in-process hbmserved peer.
func startPeer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := openTestService(t, t.TempDir(), nil)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() { srv.Close(); s.Close() })
	return s, srv
}

// TestShardedSweepMatchesSingleNode is the tentpole's sharding contract
// at the package level: a sweep sharded across two peers produces the
// same rows AND a byte-identical journal as the same spec run on a
// single node with one worker (the canonical order).
func TestShardedSweepMatchesSingleNode(t *testing.T) {
	spec := testSweepSpec(5)
	spec.Workers = 1

	// Reference: single node, one worker -> journal rows in point order.
	refDir := t.TempDir()
	ref := openTestService(t, refDir, nil)
	rv, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refView := waitState(t, ref, rv.ID, StateDone)
	ref.Close()
	refJnl, err := os.ReadFile(filepath.Join(refDir, "job-1.jnl"))
	if err != nil {
		t.Fatal(err)
	}

	// Sharded: coordinator with two peers, 2 points per shard.
	_, peer1 := startPeer(t)
	_, peer2 := startPeer(t)
	coordDir := t.TempDir()
	reg := metrics.NewRegistry()
	coord := openTestService(t, coordDir, func(o *Options) {
		o.Peers = []string{peer1.URL, peer2.URL}
		o.ShardRows = 2
		o.Metrics = reg
	})
	defer coord.Close()
	cv, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	gotView := waitState(t, coord, cv.ID, StateDone)

	if len(gotView.Result.Rows) != len(refView.Result.Rows) {
		t.Fatalf("sharded run returned %d rows, want %d",
			len(gotView.Result.Rows), len(refView.Result.Rows))
	}
	for i := range refView.Result.Rows {
		want, got := refView.Result.Rows[i], gotView.Result.Rows[i]
		if got.Name != want.Name || got.Error != "" || !reflect.DeepEqual(got.Result, want.Result) {
			t.Fatalf("row %d differs:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if serveCounter(reg, "shard_subjobs_dispatched_total") < 2 {
		t.Fatal("sweep was not actually sharded across peers")
	}

	gotJnl, err := os.ReadFile(filepath.Join(coordDir, "job-1.jnl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJnl, refJnl) {
		t.Fatalf("merged journal is not byte-identical to the single-node run:\n got %d bytes\nwant %d bytes",
			len(gotJnl), len(refJnl))
	}
}

// TestShardedSweepResumesFromJournal: a coordinator restarted mid-sweep
// re-dispatches only unjournaled points; the final journal still merges
// canonically.
func TestShardedSweepResumesFromJournal(t *testing.T) {
	spec := testSweepSpec(4)
	spec.Workers = 1

	// Run the sweep to completion without peers, then strip the finish
	// record — the restarted (now peered) service recovers the job with a
	// fully populated journal, so the sharded path must find zero pending
	// points and dispatch nothing.
	dir := t.TempDir()
	s1 := openTestService(t, dir, nil)
	v1, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, s1, v1.ID, StateDone)
	// Strip the finish record so the restarted service re-runs job 1
	// from its (complete) journal, as if killed at the finish line.
	s1.Close()
	stripLastManifestRecord(t, dir)

	_, peer1 := startPeer(t)
	reg := metrics.NewRegistry()
	s2 := openTestService(t, dir, func(o *Options) {
		o.Peers = []string{peer1.URL}
		o.Metrics = reg
	})
	defer s2.Close()
	got := waitState(t, s2, v1.ID, StateDone)
	if len(got.Result.Rows) != len(want.Result.Rows) {
		t.Fatalf("resumed sharded job: %d rows, want %d", len(got.Result.Rows), len(want.Result.Rows))
	}
	for i := range want.Result.Rows {
		if !reflect.DeepEqual(got.Result.Rows[i].Result, want.Result.Rows[i].Result) {
			t.Fatalf("row %d differs after resume", i)
		}
	}
	if n := serveCounter(reg, "shard_subjobs_dispatched_total"); n != 0 {
		t.Fatalf("fully journaled job dispatched %g sub-jobs, want 0", n)
	}
}

// stripLastManifestRecord removes the manifest's final line (a finish
// record) so recovery treats the job as interrupted.
func stripLastManifestRecord(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "jobs.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	// Drop trailing empty slice, then the last record.
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		t.Fatal("manifest empty")
	}
	if err := os.WriteFile(path, bytes.Join(lines[:len(lines)-1], nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestNoShardPinsJobLocal: a spec with no_shard runs on the coordinator
// even with peers configured — the recursion guard for peers that
// themselves have peers.
func TestNoShardPinsJobLocal(t *testing.T) {
	_, peer1 := startPeer(t)
	reg := metrics.NewRegistry()
	s := openTestService(t, t.TempDir(), func(o *Options) {
		o.Peers = []string{peer1.URL}
		o.Metrics = reg
	})
	defer s.Close()
	spec := testSweepSpec(3)
	spec.NoShard = true
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, StateDone)
	if n := serveCounter(reg, "shard_subjobs_dispatched_total"); n != 0 {
		t.Fatalf("no_shard job dispatched %g sub-jobs", n)
	}
}

// TestShardedSweepDeadPeerStillFinishes: with one real peer and one
// unreachable address, the sweep still completes (dead peer's shards
// requeue to the live one, or run locally after exhaustion).
func TestShardedSweepDeadPeerStillFinishes(t *testing.T) {
	_, peer1 := startPeer(t)
	s := openTestService(t, t.TempDir(), func(o *Options) {
		o.Peers = []string{peer1.URL, "http://127.0.0.1:1"} // port 1: refused
		o.ShardRows = 2
		o.StealAfter = 200 * time.Millisecond
	})
	defer s.Close()
	v, err := s.Submit(testSweepSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, v.ID, StateDone)
	for i, r := range got.Result.Rows {
		if r.Error != "" || r.Result == nil {
			t.Fatalf("row %d failed despite a live peer: %+v", i, r)
		}
	}
}

// TestShardedSweepFallbackJournalsRows: with every peer unreachable the
// coordinator runs the sweep itself and journals each row as it
// finishes, like a single-node sweep. Interrupted by Close once the
// first row is journaled, the reopened service runs only the rows the
// journal does not hold.
func TestShardedSweepFallbackJournalsRows(t *testing.T) {
	spec := testSweepSpec(8)
	spec.Workers = 1
	deadPeers := func(reg *metrics.Registry) func(*Options) {
		return func(o *Options) {
			o.Peers = []string{"http://127.0.0.1:1"} // port 1: refused
			o.Workers, o.JobWorkers = 1, 1
			o.Metrics = reg
		}
	}
	dir := t.TempDir()
	jnlPath := filepath.Join(dir, "job-1.jnl")
	journaled := func() int {
		raw, err := os.ReadFile(jnlPath)
		if err != nil {
			return 0
		}
		return bytes.Count(raw, []byte("\n"))
	}

	reg1 := metrics.NewRegistry()
	s1 := openTestService(t, dir, deadPeers(reg1))
	v, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for journaled() == 0 {
		if vv, _ := s1.Get(v.ID); vv.State.Terminal() {
			t.Fatalf("job ended (%s) before a fallback row reached the journal", vv.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("no fallback row reached the journal")
		}
		time.Sleep(time.Millisecond)
	}
	ran := serveCounter(reg1, "sweep_jobs_finished_total")
	s1.Close()
	if int(ran) >= len(spec.Points) {
		t.Fatalf("all %d rows had run before the first reached the journal", len(spec.Points))
	}
	kept := journaled()

	reg2 := metrics.NewRegistry()
	s2 := openTestService(t, dir, deadPeers(reg2))
	defer s2.Close()
	got := waitState(t, s2, v.ID, StateDone)
	if rerun, want := serveCounter(reg2, "sweep_jobs_started_total"), len(spec.Points)-kept; int(rerun) != want {
		t.Errorf("reopened service ran %g rows, want the %d the journal did not hold", rerun, want)
	}
	for i, r := range got.Result.Rows {
		if r.Error != "" || r.Result == nil {
			t.Fatalf("row %d failed: %+v", i, r)
		}
	}
}
