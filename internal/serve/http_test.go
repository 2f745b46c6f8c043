package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hbmsim/internal/sweep"
)

func postJob(t *testing.T, url string, spec Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeView(t *testing.T, resp *http.Response) View {
	t.Helper()
	defer resp.Body.Close()
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding view: %v", err)
	}
	return v
}

func TestHTTPSubmitPollResult(t *testing.T) {
	s := openTestService(t, t.TempDir(), nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJob(t, ts.URL, testSimSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	v := decodeView(t, resp)
	if v.ID != 1 {
		t.Fatalf("job id %d, want 1", v.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, v.ID))
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", r.StatusCode)
		}
		vv := decodeView(t, r)
		if vv.State.Terminal() {
			if vv.State != StateDone || vv.Result == nil || vv.Result.Sim == nil {
				t.Fatalf("job ended %s (err=%q) result=%v", vv.State, vv.Error, vv.Result)
			}
			if vv.Spec == nil {
				t.Error("GET /jobs/{id} should include the spec")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// List shows the job without heavy fields.
	r, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var list []View
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Result != nil || list[0].Spec != nil {
		t.Fatalf("list shape wrong: %+v", list)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	block := make(chan struct{})
	s := openTestService(t, t.TempDir(), func(o *Options) {
		o.Workers = 1
		o.QueueCap = 1
		o.testHookBeforeJob = func(*job) { <-block }
	})
	defer s.Close()
	defer close(block)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJob(t, ts.URL, testSimSpec()).Body.Close()
	waitState(t, s, 1, StateRunning)
	postJob(t, ts.URL, testSimSpec()).Body.Close()

	resp := postJob(t, ts.URL, testSimSpec())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 must carry Retry-After")
	}
}

// TestHTTPOversizedSpec413: a spec body over maxSpecBytes is refused
// with 413 before it is buffered, and the service keeps serving.
func TestHTTPOversizedSpec413(t *testing.T) {
	s := openTestService(t, t.TempDir(), nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"kind":"sim","name":"` + strings.Repeat("a", maxSpecBytes) + `"}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec status %d, want 413", resp.StatusCode)
	}

	resp = postJob(t, ts.URL, testSimSpec())
	v := decodeView(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after 413: status %d, want 202", resp.StatusCode)
	}
	waitState(t, s, v.ID, StateDone)
}

// TestTerminalEventSurvivesFullBuffer: a subscriber whose buffer is
// already full of progress updates when the job finishes still receives
// the terminal update, so its SSE stream ends.
func TestTerminalEventSurvivesFullBuffer(t *testing.T) {
	block := make(chan struct{})
	var svc *Service
	s := openTestService(t, t.TempDir(), func(o *Options) {
		o.Workers = 1
		o.testHookBeforeJob = func(j *job) {
			<-block
			for i := 0; i < 64; i++ {
				svc.pushProgress(j, sweep.Progress{Completed: i, Total: 64})
			}
		}
	})
	svc = s
	defer s.Close()

	v, err := s.Submit(testSimSpec())
	if err != nil {
		t.Fatal(err)
	}
	ch, _, ok := s.subscribe(v.ID)
	if !ok {
		t.Fatal("subscribe: job not found")
	}
	defer s.unsubscribe(v.ID, ch)
	close(block)
	waitState(t, s, v.ID, StateDone)

	var got []View
	for len(ch) > 0 {
		got = append(got, <-ch)
	}
	if len(got) != cap(ch) {
		t.Fatalf("drained %d queued updates, want a full buffer of %d", len(got), cap(ch))
	}
	if last := got[len(got)-1]; last.State != StateDone {
		t.Fatalf("last queued update is %s, want the terminal done", last.State)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := openTestService(t, t.TempDir(), nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Invalid spec -> 400.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"kind":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec status %d, want 400", resp.StatusCode)
	}
	// Negative page size -> 400, refused before the trace is generated.
	resp, _ = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(
		`{"kind":"sim","workload":{"gen":"densemm","cores":2,"size":32,"page_bytes":-8},"config":{"hbm_slots":8}}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative page size status %d, want 400", resp.StatusCode)
	}
	// Unknown field -> 400 (typo safety).
	resp, _ = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"kindd":"sim"}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status %d, want 400", resp.StatusCode)
	}
	// Unknown job -> 404.
	resp, _ = http.Get(ts.URL + "/jobs/99")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
	// Bad id -> 400.
	resp, _ = http.Get(ts.URL + "/jobs/banana")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status %d, want 400", resp.StatusCode)
	}

	// Cancel of a finished job -> 409.
	v, _ := s.Submit(testSimSpec())
	waitState(t, s, v.ID, StateDone)
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", ts.URL, v.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished status %d, want 409", resp.StatusCode)
	}
}

func TestHTTPCancel(t *testing.T) {
	block := make(chan struct{})
	s := openTestService(t, t.TempDir(), func(o *Options) {
		o.Workers = 1
		o.testHookBeforeJob = func(*job) { <-block }
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJob(t, ts.URL, testSimSpec()).Body.Close()
	waitState(t, s, 1, StateRunning)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d, want 200", resp.StatusCode)
	}
	close(block)
	waitState(t, s, 1, StateCancelled)
}

// TestHTTPServerSentEvents reads the live stream end to end: an initial
// snapshot event, progress updates, and a final terminal event after
// which the stream closes.
func TestHTTPServerSentEvents(t *testing.T) {
	s := openTestService(t, t.TempDir(), func(o *Options) { o.Workers = 1; o.JobWorkers = 1 })
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJob(t, ts.URL, testSweepSpec(4)).Body.Close()
	resp, err := http.Get(ts.URL + "/jobs/1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var events []View
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var v View
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		events = append(events, v)
	}
	// The stream must end by itself (terminal event) without a client
	// disconnect; scanner.Err() == nil means clean EOF.
	if err := scanner.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Fatalf("last event state %s, want done", last.State)
	}
	// Events for an already-terminal job: one snapshot, then EOF.
	resp2, err := http.Get(ts.URL + "/jobs/1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	n := 0
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("terminal-job stream sent %d events, want 1", n)
	}
}
