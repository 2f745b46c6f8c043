package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hbmsim/internal/core"
	"hbmsim/internal/metrics"
	"hbmsim/internal/resultcache"
	"hbmsim/internal/serve"
	"hbmsim/internal/tracing"
)

// serveClients is the number of closed-loop clients: each sends its next
// job only after the previous one's result arrived. One client measures a
// user's wait without a second job competing for the two vCPUs; with two,
// a job's latency and the memory peak depended on which job kinds
// happened to overlap, and moved from run to run.
const serveClients = 1

// jobTimeout bounds one job's round trip, so a stuck service fails the
// run instead of hanging it.
const jobTimeout = 60 * time.Second

// checkedPerShape is how many of each client's first simulated jobs of
// each shape are re-run directly through core.Run after the timed phase.
const checkedPerShape = 4

// serveWorkload drives an in-process serve.Service over HTTP, the way an
// hbmserved user does: POST /jobs, wait for the terminal SSE event, GET
// the result. In each group of four jobs, jobs 0 and 2 are contended
// SpGEMM simulations with checkpoints, job 1 is a dense MM simulation
// (its trace ignores the seed, so a distinct config seed keeps it out of
// the cache) and job 3 resubmits job 2's spec, which the result cache
// answers. With the 2:1:1 mix the median falls inside the SpGEMM mode and
// the 90th percentile inside the dense MM mode.
type serveWorkload struct {
	seed  int64
	smoke bool

	dir           string
	reg           *metrics.Registry
	plain, traced *server // traced is nil unless the run is traced
	before        map[string]float64

	groups     atomic.Int64 // completed groups, all clients
	hitsSeen   atomic.Int64 // views that reported cache_hit
	kept       [serveClients][]keptJob
	firstTicks uint64 // simulated ticks of client 0's first group
}

// keptJob is a simulated job kept for the post-phase direct check.
type keptJob struct {
	spec    serve.Spec
	payload []byte
}

func newServeJobs(seed int64, smoke bool) *serveWorkload {
	return &serveWorkload{seed: seed, smoke: smoke}
}

// group returns client c's g-th group of four job specs. Workload and
// config seeds are distinct per client and group, so only job 3 can hit
// the cache.
func (w *serveWorkload) group(c, g int) [4]serve.Spec {
	base := w.seed*1_000_000 + int64(c)*100_000 + int64(g)*4
	spCores, spSize, spK, every := 16, 64, 256, uint64(65536)
	dnCores, dnSize, dnK := 8, 48, 6912
	if w.smoke {
		spCores, spSize, spK, every = 4, 16, 32, 256
		dnCores, dnSize, dnK = 2, 12, 64
	}
	spgemm := func(i int64) serve.Spec {
		return serve.Spec{
			Kind:     serve.KindSim,
			Workload: &serve.WorkloadSpec{Gen: "spgemm", Cores: spCores, Size: spSize, Seed: base + i},
			Config: &serve.ConfigSpec{HBMSlots: spK, Arbiter: "priority", Permuter: "dynamic",
				RemapPeriod: 10000, Seed: w.seed},
			CheckpointEveryTicks: every,
		}
	}
	dense := serve.Spec{
		Kind:     serve.KindSim,
		Workload: &serve.WorkloadSpec{Gen: "densemm", Cores: dnCores, Size: dnSize, Seed: w.seed},
		Config:   &serve.ConfigSpec{HBMSlots: dnK, Seed: base + 1},
	}
	return [4]serve.Spec{spgemm(0), dense, spgemm(2), spgemm(2)}
}

// jobKinds labels the samples of a group's four jobs.
var jobKinds = [4]string{"spgemm", "densemm", "spgemm", "hit"}

func (w *serveWorkload) setup(h *harness) error {
	_, root := h.tracer.StartRoot(context.Background(), "bench.setup")
	defer root.End()
	dir, err := os.MkdirTemp(h.dir, "serve-")
	if err != nil {
		return err
	}
	w.dir = dir
	// Both services share one registry, so the serve_* instruments sum
	// over traced and untraced jobs.
	w.reg = metrics.NewRegistry()
	if w.plain, err = openServer(filepath.Join(dir, "plain"), w.reg, nil); err != nil {
		return err
	}
	if h.opts.traced {
		if w.traced, err = openServer(filepath.Join(dir, "traced"), w.reg, h.tracer); err != nil {
			return err
		}
	}
	// The warm-up job has the shape of the measured SpGEMM jobs, so set-up
	// time is mostly simulation, which the reference kernel scales, rather
	// than the few file syncs of opening a service, which it does not.
	warm := w.group(0, warmGroup)[0]
	warm.Name = "warm-up"
	for _, s := range w.servers() {
		if _, _, err := s.do(context.Background(), nil, &warm); err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
	}
	return nil
}

// warmGroup numbers the warm-up job's group: its workload seed lies
// beyond any group a run reaches, so no measured job hits its cache entry.
const warmGroup = 24_999

func (w *serveWorkload) servers() []*server {
	if w.traced != nil {
		return []*server{w.plain, w.traced}
	}
	return []*server{w.plain}
}

func (w *serveWorkload) teardown(*harness) {
	for _, s := range w.servers() {
		if s != nil {
			s.close()
		}
	}
	w.plain, w.traced = nil, nil
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *serveWorkload) run(h *harness, deadline time.Time) {
	w.before = registryValues(w.reg)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.client(h, c, deadline)
		}(c)
	}
	wg.Wait()
}

// client runs whole groups until the deadline, so every client's mix
// stays exactly 2:1:1.
func (w *serveWorkload) client(h *harness, c int, deadline time.Time) {
	perShape := map[string]int{}
	for g := 0; g < minOps || time.Now().Before(deadline); g++ {
		srv := w.plain
		tr := h.traceFor(g)
		if tr != nil {
			srv = w.traced
		}
		specs := w.group(c, g)
		var payloads [4][]byte
		for i := range specs {
			t0 := time.Now()
			v, payload, err := srv.do(context.Background(), tr, &specs[i])
			secs := time.Since(t0).Seconds()
			if err == nil {
				err = w.verify(i, v, payload, payloads[2])
			}
			h.record(sample{secs: secs, traced: tr != nil, kind: jobKinds[i]}, err)
			if err != nil {
				continue
			}
			payloads[i] = payload
			if g == 0 {
				h.checkDigest(fmt.Sprintf("client%d/job%d/%s", c, i, jobKinds[i]), payload)
			}
			if i == 3 {
				continue
			}
			if c == 0 && g == 0 {
				w.firstTicks += uint64(v.Result.Sim.Makespan)
			}
			if kind := jobKinds[i]; perShape[kind] < checkedPerShape {
				perShape[kind]++
				w.kept[c] = append(w.kept[c], keptJob{spec: specs[i], payload: payload})
			}
		}
		w.groups.Add(1)
	}
}

// verify checks one finished job: the simulated jobs miss the cache, the
// resubmission hits it and returns byte-for-byte the original payload.
func (w *serveWorkload) verify(i int, v serve.View, payload, original []byte) error {
	if v.CacheHit {
		w.hitsSeen.Add(1)
	}
	if want := i == 3; v.CacheHit != want {
		return fmt.Errorf("job %d (%s): cache_hit=%t, want %t", v.ID, jobKinds[i], v.CacheHit, want)
	}
	if v.Result == nil || v.Result.Sim == nil {
		return fmt.Errorf("job %d (%s): no sim result", v.ID, jobKinds[i])
	}
	if i == 3 && !bytes.Equal(payload, original) {
		return fmt.Errorf("job %d: cached payload differs from the original job's", v.ID)
	}
	return nil
}

// check re-runs the kept jobs directly and compares the payloads, then
// cross-checks the service's cache counter against what clients saw.
func (w *serveWorkload) check(h *harness) {
	var todo []keptJob
	for _, k := range w.kept {
		todo = append(todo, k...)
	}
	parallel(len(todo), func(i int) {
		k := todo[i]
		wl, err := k.spec.Workload.Build()
		if err != nil {
			h.fail("direct check: %v", err)
			return
		}
		cfg, err := k.spec.Config.Config()
		if err != nil {
			h.fail("direct check: %v", err)
			return
		}
		res, err := core.Run(cfg, wl.Raw())
		if err != nil {
			h.fail("direct check: %v", err)
			return
		}
		enc, err := json.Marshal(&serve.Payload{Sim: res})
		if err != nil {
			h.fail("direct check: %v", err)
			return
		}
		if !bytes.Equal(enc, k.payload) {
			h.fail("served %s job (workload seed %d) differs from a direct core.Run",
				k.spec.Workload.Gen, k.spec.Workload.Seed)
		}
	})
	hits := registryValues(w.reg)["serve_cache_hit_total"] - w.before["serve_cache_hit_total"]
	if int64(hits) != w.hitsSeen.Load() {
		h.fail("serve_cache_hit_total moved by %g, clients saw %d cache hits", hits, w.hitsSeen.Load())
	}
}

func (w *serveWorkload) layers(h *harness, m *metricSet) {
	// Hit floor: what a cache hit must always pay, outside the service:
	// regenerating the resubmitted workload and fingerprinting it.
	spec := w.group(0, 0)[2]
	var floor []float64
	var refs uint64
	for r := 0; r < 5; r++ {
		ctx, root := h.tracer.StartRoot(context.Background(), "bench.hit_floor")
		t0 := time.Now()
		wl, err := buildWorkload(ctx, *spec.Workload)
		if err == nil {
			_, err = spec.Fingerprint(wl)
			refs = wl.TotalRefs()
		}
		floor = append(floor, time.Since(t0).Seconds())
		root.EndErr(err)
		if err != nil {
			h.fail("hit floor: %v", err)
			return
		}
	}
	recs := h.spans.snapshot()
	build := durations(recs, "bench.workload_build", nil)
	m.set("workloads.build_s", mean(build), len(build))
	m.set("workloads.refs", float64(refs), 1)
	m.set("core.ticks", float64(w.firstTicks), 1)

	for _, x := range []struct{ metric, span string }{
		{"serve.submit_s_p50", "bench.http_submit"},
		{"serve.wait_s_p50", "bench.http_wait"},
		{"serve.fetch_s_p50", "bench.http_fetch"},
	} {
		d := durations(recs, x.span, nil)
		m.set(x.metric, quantile(d, 0.5), len(d))
	}
	miss := append(h.latencies(false, "spgemm"), h.latencies(false, "densemm")...)
	hit := h.latencies(false, "hit")
	m.set("serve.miss_s_p50", quantile(miss, 0.5), len(miss))
	m.set("serve.miss_s_p90", quantile(miss, 0.9), len(miss))
	m.set("serve.hit_s_p50", quantile(hit, 0.5), len(hit))
	m.set("serve.hit_s_p90", quantile(hit, 0.9), len(hit))
	m.set("serve.hit_floor_s", quantile(floor, 0.5), len(floor))

	after := registryValues(w.reg)
	delta := func(name string) float64 { return after[name] - w.before[name] }
	meanOf := func(hist string) (float64, int) {
		n := delta(hist + "_count")
		return ratio(delta(hist+"_sum"), n), int(n)
	}
	v, n := meanOf("serve_queue_wait_seconds")
	m.set("serve.queue_wait_s_mean", v, n)
	v, n = meanOf("serve_job_seconds")
	m.set("serve.run_s_mean", v, n)
	v, n = meanOf("serve_checkpoint_write_seconds")
	m.set("serve.checkpoint_write_s_mean", v, n)
	groups := float64(w.groups.Load())
	m.set("serve.checkpoint_writes", ratio(delta("serve_checkpoint_write_seconds_count"), groups), int(groups))
	m.set("serve.cache_hits", ratio(delta("serve_cache_hit_total"), groups), int(groups))
	m.set("serve.cache_misses", ratio(delta("serve_cache_miss_total"), groups), int(groups))

	entries, stalls := 0, int64(0)
	for _, s := range w.servers() {
		n, err := s.cache.Len()
		if err != nil {
			h.fail("counting cache entries: %v", err)
		}
		entries += n
		stalls += s.stalls.Load()
	}
	m.set("resultcache.entries", float64(entries), 1)
	m.set("serve.sse_stalls", float64(stalls), int(groups))
}

// registryValues flattens a registry snapshot: counters and gauges by
// name, histograms as <name>_sum and <name>_count.
func registryValues(reg *metrics.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Snapshot() {
		if s.Kind == metrics.KindHistogram {
			out[s.Name+"_sum"] = s.Sum
			out[s.Name+"_count"] = float64(s.Count)
		} else {
			out[s.Name] = s.Value
		}
	}
	return out
}

// server is one in-process service behind an httptest server.
type server struct {
	svc    *serve.Service
	http   *httptest.Server
	cache  *resultcache.Store
	client *http.Client
	stalls atomic.Int64 // jobs whose event stream missed the terminal update
}

func openServer(dir string, reg *metrics.Registry, tr *tracing.Tracer) (*server, error) {
	cache, err := resultcache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	svc, err := serve.Open(serve.Options{
		Dir:     filepath.Join(dir, "state"),
		Workers: 2,
		Cache:   cache,
		Metrics: reg,
		Tracer:  tr,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(svc.Handler())
	return &server{svc: svc, http: ts, cache: cache, client: ts.Client()}, nil
}

func (s *server) close() {
	s.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	s.svc.Drain(ctx) // an interrupted drain still leaves Close to stop the workers
	s.svc.Close()
}

// do submits spec, waits for its terminal event and fetches the result,
// under a bench.job span whose traceparent the service continues. It
// returns the final view and the canonical JSON of its payload.
func (s *server) do(ctx context.Context, tr *tracing.Tracer, spec *serve.Spec) (serve.View, []byte, error) {
	ctx, root := tr.StartRoot(ctx, "bench.job")
	v, payload, err := s.roundTrip(ctx, root, spec)
	root.EndErr(err)
	return v, payload, err
}

func (s *server) roundTrip(ctx context.Context, root tracing.Span, spec *serve.Spec) (serve.View, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	var v serve.View
	body, err := json.Marshal(spec)
	if err != nil {
		return v, nil, err
	}

	_, sp := tracing.StartSpan(ctx, "bench.http_submit")
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.http.URL+"/jobs", bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		if root.Sampled() {
			req.Header.Set("traceparent", root.Traceparent())
		}
		err = s.call(req, http.StatusAccepted, &v)
	}
	sp.EndErr(err)
	if err != nil {
		return v, nil, err
	}

	_, sp = tracing.StartSpan(ctx, "bench.http_wait")
	stalled, err := s.wait(ctx, v.ID)
	if stalled {
		s.stalls.Add(1)
		sp.SetAttrBool("stalled", true)
	}
	sp.EndErr(err)
	if err != nil {
		return v, nil, err
	}

	_, sp = tracing.StartSpan(ctx, "bench.http_fetch")
	var payload []byte
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/jobs/%d", s.http.URL, v.ID), nil)
	if err == nil {
		err = s.call(req, http.StatusOK, &v)
	}
	if err == nil && v.State != serve.StateDone {
		err = fmt.Errorf("job %d ended %s: %s", v.ID, v.State, v.Error)
	}
	if err == nil {
		payload, err = json.Marshal(v.Result)
	}
	sp.EndErr(err)
	return v, payload, err
}

// call sends req and decodes a want-status JSON answer into out. Any
// other status, including 429 and 503 refusals, is an error.
func (s *server) call(req *http.Request, want int, out any) error {
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, out)
}

// sseStall is how often wait asks GET /jobs/{id} whether a job whose
// event stream has not ended yet has finished. Jobs here take well under
// a second, so a healthy stream rarely sees the check.
const sseStall = time.Second

// wait follows the job's SSE stream until it reports a terminal state.
// The service drops updates for a subscriber whose buffer is full, and
// the terminal update is not exempt, so a stream can stay open after its
// job ended; wait therefore also checks the job every sseStall, and
// stalled reports that the check, not the stream, saw it finish.
func (s *server) wait(ctx context.Context, id uint64) (stalled bool, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	streamed := make(chan error, 1)
	go func() { streamed <- s.follow(ctx, id) }()
	t := time.NewTicker(sseStall)
	defer t.Stop()
	for {
		select {
		case err := <-streamed:
			return false, err
		case <-t.C:
			var v serve.View
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/jobs/%d", s.http.URL, id), nil)
			if err == nil {
				err = s.call(req, http.StatusOK, &v)
			}
			if err == nil && !v.State.Terminal() {
				continue
			}
			cancel()
			<-streamed
			return err == nil, err
		}
	}
}

// follow reads the job's SSE stream until it reports a terminal state.
func (s *server) follow(ctx context.Context, id uint64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/jobs/%d/events", s.http.URL, id), nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", req.URL.Path, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var v serve.View
		if err := json.Unmarshal([]byte(data), &v); err != nil {
			return fmt.Errorf("job %d: bad SSE event: %w", id, err)
		}
		if v.State.Terminal() {
			_, err := io.Copy(io.Discard, resp.Body) // let the connection be reused
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %d: event stream ended before a terminal state", id)
}

// parallel runs f(0..n-1) on two goroutines, the benchmark's load bound.
func parallel(n int, f func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
