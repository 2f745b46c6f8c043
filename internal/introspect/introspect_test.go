package introspect

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
	"time"

	"hbmsim/internal/metrics"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsEndpoint is the acceptance check for /metrics: Prometheus
// text format, counters monotone across scrapes, histogram buckets
// cumulative within a scrape.
func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("hbmsim_serves_total", "references served")
	h := reg.Histogram("sweep_job_seconds", "per-job wall time", []float64{0.1, 1, 10})
	srv := httptest.NewServer(New(reg, nil).Handler())
	defer srv.Close()

	scrape := func() string {
		code, body := get(t, srv, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics status %d", code)
		}
		return body
	}

	c.Add(3)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)
	first := scrape()

	counterRe := regexp.MustCompile(`(?m)^hbmsim_serves_total (\d+)$`)
	m := counterRe.FindStringSubmatch(first)
	if m == nil {
		t.Fatalf("counter sample missing from scrape:\n%s", first)
	}
	v1, _ := strconv.Atoi(m[1])
	if v1 != 3 {
		t.Fatalf("counter = %d, want 3", v1)
	}
	if want := "# TYPE hbmsim_serves_total counter"; !regexp.MustCompile(regexp.QuoteMeta(want)).MatchString(first) {
		t.Fatalf("missing TYPE line in:\n%s", first)
	}

	// Histogram buckets: cumulative in le, +Inf equals _count.
	bucketRe := regexp.MustCompile(`(?m)^sweep_job_seconds_bucket\{le="([^"]+)"\} (\d+)$`)
	buckets := bucketRe.FindAllStringSubmatch(first, -1)
	if len(buckets) != 4 {
		t.Fatalf("want 4 buckets, got %v", buckets)
	}
	prev := -1
	for _, b := range buckets {
		n, _ := strconv.Atoi(b[2])
		if n < prev {
			t.Fatalf("buckets not cumulative: %v", buckets)
		}
		prev = n
	}
	if lastLe := buckets[len(buckets)-1][1]; lastLe != "+Inf" {
		t.Fatalf("final bucket le = %s, want +Inf", lastLe)
	}
	countRe := regexp.MustCompile(`(?m)^sweep_job_seconds_count (\d+)$`)
	cm := countRe.FindStringSubmatch(first)
	if cm == nil || cm[1] != buckets[len(buckets)-1][2] {
		t.Fatalf("+Inf bucket %s != _count %v", buckets[len(buckets)-1][2], cm)
	}

	// Counters are monotone across scrapes.
	c.Add(2)
	second := scrape()
	v2, _ := strconv.Atoi(counterRe.FindStringSubmatch(second)[1])
	if v2 < v1 || v2 != 5 {
		t.Fatalf("counter not monotone: %d then %d", v1, v2)
	}
}

// TestPprofProfileEndpoint: /debug/pprof/profile returns a valid (gzipped
// protobuf, non-empty) CPU profile.
func TestPprofProfileEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(metrics.NewRegistry(), nil).Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("profile status %d: %s", resp.StatusCode, body)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("profile gunzip: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("profile is empty")
	}
}

func TestProgressEndpoint(t *testing.T) {
	prog := &Progress{}
	srv := httptest.NewServer(New(nil, prog).Handler())
	defer srv.Close()

	prog.SetPhase("fig3", 40)
	prog.Update(10, 40, 1, 2*time.Second, 6*time.Second)
	code, body := get(t, srv, "/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var snap ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("progress JSON: %v\n%s", err, body)
	}
	want := ProgressSnapshot{Phase: "fig3", Completed: 10, Total: 40, Failed: 1,
		Percent: 25, ElapsedSeconds: 2, ETASeconds: 6}
	if snap != want {
		t.Fatalf("progress = %+v, want %+v", snap, want)
	}
}

func TestVarsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("hbmsim_ticks_total", "").Add(9)
	srv := httptest.NewServer(New(reg, nil).Handler())
	defer srv.Close()

	code, body := get(t, srv, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("vars is not JSON: %v\n%s", err, body)
	}
	if _, ok := doc["memstats"]; !ok {
		t.Fatal("vars missing expvar's memstats")
	}
	var ms map[string]struct {
		Kind  string  `json:"kind"`
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(doc["metrics"], &ms); err != nil {
		t.Fatalf("vars metrics block: %v", err)
	}
	if got := ms["hbmsim_ticks_total"]; got.Kind != "counter" || got.Value != 9 {
		t.Fatalf("metrics block = %+v", ms)
	}
}

func TestServerStartClose(t *testing.T) {
	srv := New(metrics.NewRegistry(), &Progress{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr() != addr {
		t.Fatalf("Addr %q != Start %q", srv.Addr(), addr)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// A never-started server's Close is a no-op.
	if err := New(nil, nil).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerTimeoutsSet: the started server bounds how long a client may
// take to send headers and how long an idle connection stays open.
func TestServerTimeoutsSet(t *testing.T) {
	srv := New(nil, nil)
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.srv.ReadHeaderTimeout <= 0 || srv.srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout=%v IdleTimeout=%v, want both set",
			srv.srv.ReadHeaderTimeout, srv.srv.IdleTimeout)
	}
}

func TestParseLogLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "Warn": "WARN", "ERROR": "ERROR", "": "INFO",
	} {
		lvl, err := ParseLogLevel(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if lvl.String() != want {
			t.Fatalf("%q -> %v, want %s", in, lvl, want)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Fatal("bad level accepted")
	}
}
