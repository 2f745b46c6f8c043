// Package introspect serves a running hbmsim/hbmsweep process's live
// state over HTTP: Prometheus-text metrics on /metrics, expvar-style JSON
// on /debug/vars, the full net/http/pprof suite on /debug/pprof/, and a
// small sweep-progress JSON view on /progress. The server is strictly
// opt-in (the -http flag): when it is off, no listener is opened and no
// instrument is registered, so the simulation path is byte-identical to an
// uninstrumented run.
package introspect

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"hbmsim/internal/metrics"
	"hbmsim/internal/tracing"
)

// Progress tracks the phase and completion state of a long-running job
// list for the /progress endpoint. All methods are safe for concurrent
// use; the zero value is ready.
type Progress struct {
	mu        sync.Mutex
	phase     string
	completed int
	total     int
	failed    int
	elapsed   time.Duration
	eta       time.Duration
}

// ProgressSnapshot is the JSON shape served at /progress.
type ProgressSnapshot struct {
	// Phase names the currently running stage (e.g. an experiment id).
	Phase string `json:"phase"`
	// Completed/Total/Failed count jobs in the current phase; Total is 0
	// when unknown.
	Completed int `json:"completed"`
	Total     int `json:"total"`
	Failed    int `json:"failed"`
	// Percent is 100*Completed/Total, 0 when Total is unknown.
	Percent float64 `json:"percent"`
	// ElapsedSeconds and ETASeconds are wall-clock measures of the
	// current phase.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	ETASeconds     float64 `json:"eta_seconds"`
}

// SetPhase names the running stage and resets the completion counters
// (total 0 = unknown).
func (p *Progress) SetPhase(phase string, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.phase = phase
	p.completed, p.total, p.failed = 0, total, 0
	p.elapsed, p.eta = 0, 0
}

// Update records the latest completion counts; it matches the shape of
// sweep.Progress so callers can forward updates directly.
func (p *Progress) Update(completed, total, failed int, elapsed, eta time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.completed, p.total, p.failed = completed, total, failed
	p.elapsed, p.eta = elapsed, eta
}

// Snapshot returns the current state.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProgressSnapshot{
		Phase:          p.phase,
		Completed:      p.completed,
		Total:          p.total,
		Failed:         p.failed,
		ElapsedSeconds: p.elapsed.Seconds(),
		ETASeconds:     p.eta.Seconds(),
	}
	if p.total > 0 {
		s.Percent = 100 * float64(p.completed) / float64(p.total)
	}
	return s
}

// Server is the opt-in introspection endpoint. Construct with New, then
// Start it on an address; Close stops the listener. The zero value is not
// usable.
type Server struct {
	reg  *metrics.Registry
	prog *Progress
	srv  *http.Server
	ln   net.Listener

	extraMu sync.Mutex
	extra   []extraRoute
	tracer  *tracing.Tracer // /debug/trace source; nil = endpoint disabled

	healthMu     sync.Mutex
	healthReason string // "" = serving; non-empty = 503 with this reason
}

// extraRoute is a caller-mounted handler (see Handle).
type extraRoute struct {
	pattern string
	h       http.Handler
}

// New builds a server over the given registry and progress tracker (either
// may be nil; the corresponding endpoints then serve empty documents).
func New(reg *metrics.Registry, prog *Progress) *Server {
	return &Server{reg: reg, prog: prog}
}

// Handle mounts an additional handler on the server — cmd/hbmserved uses
// it to expose the job API beside /metrics and /progress. Patterns use
// net/http.ServeMux syntax and must be registered before Start/Handler.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.extraMu.Lock()
	defer s.extraMu.Unlock()
	s.extra = append(s.extra, extraRoute{pattern: pattern, h: h})
}

// Handler returns the server's routing table — also usable directly under
// httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.extraMu.Lock()
	for _, e := range s.extra {
		mux.Handle(e.pattern, e.h)
	}
	s.extraMu.Unlock()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/", s.handleIndex)
	return mux
}

// Server timeouts. A client gets readHeaderTimeout to send its request
// headers, so a slow-header client cannot hold a connection open
// indefinitely, and an idle keep-alive connection is closed after
// idleTimeout. There is deliberately no read or write timeout on the
// whole request: SSE job streams, pprof profiles, and execution traces
// legitimately stay open for as long as the client asks.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Start opens a listener on addr (e.g. ":8080" or "127.0.0.1:0") and
// serves in a background goroutine. It returns the bound address, useful
// when addr requested an ephemeral port.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("introspect: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	go s.srv.Serve(ln) // Serve returns ErrServerClosed on Close; nothing to do with it
	return ln.Addr().String(), nil
}

// Addr returns the bound address, or "" before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. Safe to call on a never-started server.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.reg != nil {
		// Write errors mean the scraper hung up; nothing useful to do.
		_ = s.reg.WritePrometheus(w)
	}
}

// handleVars serves expvar's built-in vars (cmdline, memstats) merged with
// the registry, without touching the expvar global namespace — several
// servers (tests) can coexist in one process.
func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	first := true
	expvar.Do(func(kv expvar.KeyValue) {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value)
	})
	if s.reg != nil {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		fmt.Fprintf(w, "%q: ", "metrics")
		_ = s.reg.WriteJSON(w)
	}
	fmt.Fprintf(w, "\n}\n")
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var snap ProgressSnapshot
	if s.prog != nil {
		snap = s.prog.Snapshot()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `hbmsim live introspection
  /metrics        Prometheus text exposition
  /healthz        readiness probe (503 + reason while draining)
  /progress       sweep progress JSON (completed/total, ETA)
  /debug/trace    recent + open spans (?trace=, ?job=, ?format=perfetto)
  /debug/vars     expvar JSON (cmdline, memstats, metrics)
  /debug/pprof/   CPU, heap, goroutine, ... profiles
`)
}
