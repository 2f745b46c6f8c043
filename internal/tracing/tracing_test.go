package tracing

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestSpanTreeParentLinks(t *testing.T) {
	tr := New(Options{})
	ctx, root := tr.StartRoot(context.Background(), "test.root")
	if !root.Sampled() {
		t.Fatal("root not sampled at default sample rate")
	}
	root.SetAttr("job", "7")
	root.SetAttrInt("ticks", 42)
	root.SetAttrUint("refs", 99)
	root.SetAttrBool("resumed", true)

	cctx, child := StartSpan(ctx, "test.child")
	if child.Trace() != root.Trace() {
		t.Fatalf("child trace %s != root trace %s", child.Trace(), root.Trace())
	}
	if child.ID() == root.ID() {
		t.Fatal("child reused root span ID")
	}
	_, grand := StartSpan(cctx, "test.grandchild")
	grand.End()
	child.EndErr(errors.New("boom"))
	root.End()

	recs := tr.Recent()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["test.child"].Parent != root.ID() {
		t.Errorf("child parent = %s, want %s", byName["test.child"].Parent, root.ID())
	}
	if byName["test.grandchild"].Parent != byName["test.child"].ID {
		t.Errorf("grandchild parent = %s, want child", byName["test.grandchild"].Parent)
	}
	if got := byName["test.child"].Err; got != "boom" {
		t.Errorf("child Err = %q, want boom", got)
	}
	r := byName["test.root"]
	for _, want := range []Attr{{"job", "7"}, {"ticks", "42"}, {"refs", "99"}, {"resumed", "true"}} {
		if got := r.AttrValue(want.Key); got != want.Value {
			t.Errorf("root attr %s = %q, want %q", want.Key, got, want.Value)
		}
	}
	if len(tr.Active()) != 0 {
		t.Errorf("active set not empty after all spans ended: %v", tr.Active())
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := New(Options{})
	_, sp := tr.StartRoot(context.Background(), "test.once")
	sp.End()
	sp.End()
	sp.EndErr(errors.New("late"))
	recs := tr.Recent()
	if len(recs) != 1 {
		t.Fatalf("got %d records after triple End, want 1", len(recs))
	}
	if recs[0].Err != "" {
		t.Errorf("late EndErr mutated finished span: %q", recs[0].Err)
	}
}

func TestActiveSnapshot(t *testing.T) {
	tr := New(Options{})
	ctx, root := tr.StartRoot(context.Background(), "test.open")
	root.SetAttr("job", "3")
	_, child := StartSpan(ctx, "test.open.child")
	defer child.End()
	defer root.End()

	act := tr.Active()
	if len(act) != 2 {
		t.Fatalf("got %d active spans, want 2", len(act))
	}
	// Oldest first: root started before child.
	if act[0].Name != "test.open" || act[1].Name != "test.open.child" {
		t.Errorf("active order = %s, %s", act[0].Name, act[1].Name)
	}
	for _, r := range act {
		if !r.Open {
			t.Errorf("active span %s not marked Open", r.Name)
		}
		if r.Duration < 0 {
			t.Errorf("active span %s has negative elapsed %v", r.Name, r.Duration)
		}
	}
}

func TestRingWrap(t *testing.T) {
	tr := New(Options{RingSize: 4})
	for i := 0; i < 7; i++ {
		_, sp := tr.StartRoot(context.Background(), "test.ring")
		sp.SetAttrInt("i", int64(i))
		sp.End()
	}
	recs := tr.Recent()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want ring size 4", len(recs))
	}
	for j, r := range recs {
		if want := fmt.Sprint(j + 3); r.AttrValue("i") != want {
			t.Errorf("record %d has i=%s, want %s (newest 4, oldest first)", j, r.AttrValue("i"), want)
		}
	}
}

func TestSamplingSuppressesSubtree(t *testing.T) {
	tr := New(Options{Sample: 1e-12})
	for i := 0; i < 50; i++ {
		ctx, root := tr.StartRoot(context.Background(), "test.unsampled")
		if root.Sampled() {
			t.Fatal("root sampled at rate 1e-12")
		}
		cctx, child := StartSpan(ctx, "test.unsampled.child")
		if child.Sampled() {
			t.Fatal("child of suppressed root started a span")
		}
		if cctx != ctx {
			t.Fatal("suppressed StartSpan rebuilt the context")
		}
		child.End()
		root.End()
	}
	if got := len(tr.Recent()); got != 0 {
		t.Fatalf("suppressed spans leaked into ring: %d", got)
	}
	if got := len(tr.Active()); got != 0 {
		t.Fatalf("suppressed spans leaked into active set: %d", got)
	}
}

func TestStartLinkedContinuesTrace(t *testing.T) {
	tr := New(Options{})
	var trace TraceID
	var parent SpanID
	trace[0], parent[0] = 0xab, 0xcd
	_, sp := tr.StartLinked(context.Background(), trace, parent, "test.linked")
	if sp.Trace() != trace {
		t.Errorf("linked span trace = %s, want %s", sp.Trace(), trace)
	}
	sp.End()
	recs := tr.Recent()
	if len(recs) != 1 || recs[0].Parent != parent {
		t.Fatalf("linked span parent = %v, want %s", recs, parent)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRoot(context.Background(), "test.nil")
	if sp.Sampled() {
		t.Fatal("nil tracer produced a sampled span")
	}
	sp.SetAttr("k", "v")
	sp.End()
	_, child := StartSpan(ctx, "test.nil.child")
	child.End()
	if tr.Recent() != nil || tr.Active() != nil {
		t.Fatal("nil tracer returned records")
	}
}

func TestNoopPathsAllocateNothing(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		c, sp := tr.StartRoot(ctx, "test.alloc")
		sp.End()
		_, ch := StartSpan(c, "test.alloc.child")
		ch.SetAttr("k", "v")
		ch.EndErr(nil)
	}); n != 0 {
		t.Errorf("nil-tracer span lifecycle allocates %v per run, want 0", n)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Options{})
	_, sp := tr.StartRoot(context.Background(), "test.tp")
	defer sp.End()
	tp := sp.Traceparent()
	if len(tp) != 55 || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent %q malformed", tp)
	}
	trace, parent, flags, err := ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", tp, err)
	}
	if trace != sp.Trace() || parent != sp.ID() || flags != FlagSampled {
		t.Errorf("round trip lost data: %s %s %x", trace, parent, flags)
	}
}

func TestTraceparentNoop(t *testing.T) {
	tp := Span{}.Traceparent()
	want := "00-00000000000000000000000000000000-0000000000000000-00"
	if tp != want {
		t.Fatalf("no-op traceparent = %q, want %q", tp, want)
	}
	if _, _, _, err := ParseTraceparent(tp); err == nil {
		t.Error("ParseTraceparent accepted the all-zero traceparent")
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, _, _, err := ParseTraceparent(valid); err != nil {
		t.Fatalf("rejected the spec's own example: %v", err)
	}
	bad := []string{
		"",
		"00",
		valid + "x",                         // too long
		valid[:54],                          // too short
		"ff" + valid[2:],                    // unknown version
		strings.Replace(valid, "-", "_", 1), // separator
		"00-ZZf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-ZZf067aa0ba902b7-01", // hex span
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-ZZ", // hex flags
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
	}
	for _, s := range bad {
		if _, _, _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
}

// TestOpenOTLPFileAppends: a -trace-file keeps the spans of earlier runs
// (each open appends), and the close function flushes and closes the
// file.
func TestOpenOTLPFileAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	for run := 0; run < 2; run++ {
		ow, closeOTLP, err := OpenOTLPFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, sp := New(Options{Exporters: []Exporter{ow}}).StartRoot(context.Background(), "test.run")
		sp.End()
		if err := closeOTLP(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\"name\":\"test.run\""); n != 2 {
		t.Fatalf("file holds %d spans after two runs, want 2:\n%s", n, b)
	}
	if _, _, err := OpenOTLPFile(filepath.Join(t.TempDir(), "missing", "spans.jsonl")); err == nil {
		t.Fatal("opened a file in a missing directory")
	}
}

func TestOTLPWriterOutput(t *testing.T) {
	var buf bytes.Buffer
	ow := NewOTLPWriter(&buf)
	tr := New(Options{Exporters: []Exporter{ow}})
	ctx, root := tr.StartRoot(context.Background(), "test.otlp")
	root.SetAttr("job", "12")
	_, child := StartSpan(ctx, "test.otlp.child")
	child.EndErr(errors.New("bad row"))
	root.End()
	if err := ow.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d OTLP lines, want 2", len(lines))
	}
	// Child ends first, so line 0 is the child.
	var s struct {
		TraceID      string `json:"traceId"`
		SpanID       string `json:"spanId"`
		ParentSpanID string `json:"parentSpanId"`
		Name         string `json:"name"`
		Start        string `json:"startTimeUnixNano"`
		End          string `json:"endTimeUnixNano"`
		Status       *struct {
			Code    int    `json:"code"`
			Message string `json:"message"`
		} `json:"status"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &s); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if s.Name != "test.otlp.child" || s.TraceID != root.Trace().String() || s.ParentSpanID != root.ID().String() {
		t.Errorf("child line wrong: %+v", s)
	}
	if s.Status == nil || s.Status.Code != 2 || s.Status.Message != "bad row" {
		t.Errorf("child status = %+v, want code 2 / bad row", s.Status)
	}
	var rootLine struct {
		Name       string `json:"name"`
		Attributes []struct {
			Key   string `json:"key"`
			Value struct {
				StringValue string `json:"stringValue"`
			} `json:"value"`
		} `json:"attributes"`
		Status *json.RawMessage `json:"status"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &rootLine); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if rootLine.Status != nil {
		t.Error("ok span carries a status")
	}
	if len(rootLine.Attributes) != 1 || rootLine.Attributes[0].Key != "job" || rootLine.Attributes[0].Value.StringValue != "12" {
		t.Errorf("root attributes = %+v", rootLine.Attributes)
	}
}

func TestWritePerfettoOutput(t *testing.T) {
	tr := New(Options{})
	ctx, root := tr.StartRoot(context.Background(), "test.pf")
	root.SetAttr("job", "5")
	_, child := StartSpan(ctx, "test.pf.child")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, tr.Recent()); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("perfetto output not a JSON array: %v\n%s", err, buf.String())
	}
	var metas, slices int
	var threadName string
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			metas++
			if ev["name"] == "thread_name" {
				args := ev["args"].(map[string]any)
				threadName, _ = args["name"].(string)
			}
		case "X":
			slices++
			args := ev["args"].(map[string]any)
			if args["trace"] != root.Trace().String() {
				t.Errorf("slice trace arg = %v", args["trace"])
			}
			if d, ok := ev["dur"].(float64); !ok || d < 1 {
				t.Errorf("slice dur = %v, want >= 1", ev["dur"])
			}
		}
	}
	if metas < 2 {
		t.Errorf("got %d metadata events, want process_name + thread_name", metas)
	}
	if slices != 2 {
		t.Errorf("got %d slices, want 2", slices)
	}
	// The ring is oldest-first but the child ended first, so the track is
	// named after the first finished record; it must carry the trace
	// prefix either way.
	if !strings.Contains(threadName, root.Trace().String()[:8]) {
		t.Errorf("thread name %q lacks trace prefix", threadName)
	}
}

func TestFlightRecorderLogsWrap(t *testing.T) {
	f := NewFlightRecorder(nil, 3)
	for i := 0; i < 5; i++ {
		f.AddLog(LogRecord{Msg: fmt.Sprint(i)})
	}
	logs := f.Logs()
	if len(logs) != 3 {
		t.Fatalf("got %d logs, want 3", len(logs))
	}
	for j, l := range logs {
		if want := fmt.Sprint(j + 2); l.Msg != want {
			t.Errorf("log %d = %q, want %q", j, l.Msg, want)
		}
	}
	var nilRec *FlightRecorder
	nilRec.AddLog(LogRecord{Msg: "x"}) // must not panic
	if nilRec.Logs() != nil {
		t.Error("nil recorder returned logs")
	}
}

func TestFlightRecorderDump(t *testing.T) {
	tr := New(Options{})
	f := NewFlightRecorder(tr, 8)
	f.AddLog(LogRecord{TimeUnixNano: 1, Level: "INFO", Msg: "hello"})

	_, open := tr.StartRoot(context.Background(), "test.dump.open")
	open.SetAttr("job", "9")
	_, done := tr.StartRoot(context.Background(), "test.dump.done")
	done.End()

	dir := t.TempDir()
	path, err := f.DumpToDir(dir, "test")
	open.End()
	if err != nil {
		t.Fatalf("DumpToDir: %v", err)
	}
	if filepath.Dir(path) != dir || !strings.HasPrefix(filepath.Base(path), "flightrec-") {
		t.Fatalf("dump path %q", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump not JSON: %v", err)
	}
	if d.Reason != "test" || d.PID != os.Getpid() {
		t.Errorf("dump header: %+v", d)
	}
	if len(d.OpenSpans) != 1 || d.OpenSpans[0].Name != "test.dump.open" || !d.OpenSpans[0].Open {
		t.Errorf("open spans = %+v", d.OpenSpans)
	}
	if got := d.OpenSpans[0]; got.Attrs[0] != (Attr{Key: "job", Value: "9"}) {
		t.Errorf("open span attrs = %+v", got.Attrs)
	}
	if len(d.RecentSpans) != 1 || d.RecentSpans[0].Name != "test.dump.done" {
		t.Errorf("recent spans = %+v", d.RecentSpans)
	}
	if len(d.Logs) != 1 || d.Logs[0].Msg != "hello" {
		t.Errorf("logs = %+v", d.Logs)
	}
}

func TestInstallSIGQUIT(t *testing.T) {
	tr := New(Options{})
	f := NewFlightRecorder(tr, 8)
	_, sp := tr.StartRoot(context.Background(), "test.sigquit")
	defer sp.End()

	dir := t.TempDir()
	got := make(chan string, 1)
	stop := f.InstallSIGQUIT(dir, func(path string, err error) {
		if err != nil {
			t.Errorf("dump failed: %v", err)
		}
		got <- path
	})
	defer stop()

	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	select {
	case path := <-got:
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var d Dump
		if err := json.Unmarshal(raw, &d); err != nil {
			t.Fatalf("SIGQUIT dump not JSON: %v", err)
		}
		if d.Reason != "SIGQUIT" || len(d.OpenSpans) != 1 {
			t.Errorf("dump = reason %q, %d open spans", d.Reason, len(d.OpenSpans))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SIGQUIT handler never dumped")
	}
}
