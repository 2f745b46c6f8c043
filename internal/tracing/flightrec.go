package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"hbmsim/internal/durable"
)

// LogRecord is one captured log line in the flight recorder's ring —
// the introspect trace-aware slog handler tees every emitted record
// here.
type LogRecord struct {
	TimeUnixNano int64  `json:"time_unix_nano"`
	Level        string `json:"level"`
	Msg          string `json:"msg"`
	Trace        string `json:"trace,omitempty"`
	Span         string `json:"span,omitempty"`
	Attrs        []Attr `json:"attrs,omitempty"`
}

// FlightRecorder keeps a bounded in-memory window of recent activity —
// the tracer's span ring plus its own ring of log records — and dumps
// it atomically to a JSON file on demand: on SIGQUIT (InstallSIGQUIT),
// on a worker-pool panic (serve calls DumpToDir from its recover path),
// or whenever an operator asks. The dump answers "what was the process
// doing just now / just before it died": every open span (in-flight
// jobs, rows, checkpoint writes, with elapsed-so-far durations), the
// most recent finished spans, and the most recent log lines.
//
// A FlightRecorder with a nil tracer still records and dumps logs; the
// span sections are then empty.
type FlightRecorder struct {
	tr *Tracer

	mu   sync.Mutex
	logs []LogRecord
	next int
	full bool
}

// NewFlightRecorder builds a recorder over tr (which may be nil)
// keeping the last logCap log records (default 512).
func NewFlightRecorder(tr *Tracer, logCap int) *FlightRecorder {
	if logCap <= 0 {
		logCap = 512
	}
	return &FlightRecorder{tr: tr, logs: make([]LogRecord, logCap)}
}

// Tracer returns the recorder's span source (possibly nil).
func (f *FlightRecorder) Tracer() *Tracer { return f.tr }

// AddLog appends one log record to the ring. Safe for concurrent use.
func (f *FlightRecorder) AddLog(rec LogRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.logs[f.next] = rec
	f.next++
	if f.next == len(f.logs) {
		f.next, f.full = 0, true
	}
	f.mu.Unlock()
}

// Logs snapshots the captured log records, oldest first.
func (f *FlightRecorder) Logs() []LogRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.full {
		return append([]LogRecord(nil), f.logs[:f.next]...)
	}
	out := make([]LogRecord, 0, len(f.logs))
	out = append(out, f.logs[f.next:]...)
	out = append(out, f.logs[:f.next]...)
	return out
}

// SpanJSON is the JSON shape of one span record — shared by flight
// recorder dumps and the /debug/trace endpoint.
type SpanJSON struct {
	Trace         string `json:"trace"`
	Span          string `json:"span"`
	Parent        string `json:"parent,omitempty"`
	Name          string `json:"name"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNanos int64  `json:"duration_nanos"`
	Attrs         []Attr `json:"attrs,omitempty"`
	Err           string `json:"error,omitempty"`
	Open          bool   `json:"open,omitempty"`
}

// SpanRecordJSON renders one record in that shape.
func SpanRecordJSON(r SpanRecord) SpanJSON {
	d := SpanJSON{
		Trace:         r.Trace.String(),
		Span:          r.ID.String(),
		Name:          r.Name,
		StartUnixNano: r.Start.UnixNano(),
		DurationNanos: int64(r.Duration),
		Attrs:         r.Attrs,
		Err:           r.Err,
		Open:          r.Open,
	}
	if !r.Parent.IsZero() {
		d.Parent = r.Parent.String()
	}
	return d
}

// Dump is the dump document.
type Dump struct {
	Reason          string      `json:"reason"`
	WrittenUnixNano int64       `json:"written_unix_nano"`
	PID             int         `json:"pid"`
	OpenSpans       []SpanJSON  `json:"open_spans"`
	RecentSpans     []SpanJSON  `json:"recent_spans"`
	Logs            []LogRecord `json:"logs"`
}

// WriteDump writes the recorder's current window to w as one indented
// JSON document.
func (f *FlightRecorder) WriteDump(w io.Writer, reason string) error {
	d := Dump{
		Reason:          reason,
		WrittenUnixNano: time.Now().UnixNano(),
		PID:             os.Getpid(),
		OpenSpans:       []SpanJSON{},
		RecentSpans:     []SpanJSON{},
		Logs:            f.Logs(),
	}
	if f.tr != nil {
		for _, r := range f.tr.Active() {
			d.OpenSpans = append(d.OpenSpans, SpanRecordJSON(r))
		}
		for _, r := range f.tr.Recent() {
			d.RecentSpans = append(d.RecentSpans, SpanRecordJSON(r))
		}
	}
	if d.Logs == nil {
		d.Logs = []LogRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DumpToDir writes the dump atomically (durable.WriteFile) to
// <dir>/flightrec-<unixnano>.json and returns the final path. A crash
// mid-dump can leave at worst a stray .tmp file, never a torn dump.
func (f *FlightRecorder) DumpToDir(dir, reason string) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("flightrec-%d.json", time.Now().UnixNano()))
	if err := durable.WriteFile(path, func(w io.Writer) error { return f.WriteDump(w, reason) }); err != nil {
		return "", err
	}
	return path, nil
}

// InstallSIGQUIT repurposes SIGQUIT as "dump the flight recorder to dir
// and keep running" — the live-inspection path: `kill -QUIT <pid>` on a
// wedged or merely interesting process yields a dump without stopping
// it. Installing the handler replaces the Go runtime's default SIGQUIT
// behaviour (goroutine dump + exit); SIGABRT still provides that. Each
// dump's outcome is reported through onDump (which may be nil): path on
// success, err on failure. The returned stop function uninstalls the
// handler.
func (f *FlightRecorder) InstallSIGQUIT(dir string, onDump func(path string, err error)) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
				path, err := f.DumpToDir(dir, "SIGQUIT")
				if onDump != nil {
					onDump(path, err)
				}
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
