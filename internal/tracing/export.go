package tracing

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// OTLPWriter streams finished spans as OTLP-compatible JSON lines: one
// span object per line, field names and encodings matching the OTLP/JSON
// span shape (hex IDs, nanosecond timestamps as decimal strings,
// key/value attribute pairs), so standard collectors and jq one-liners
// both read it. Writes are buffered and errors latched — the first
// failure sticks and every later write is a no-op — following the same
// convention as telemetry's exporters: a dead sink must not be able to
// panic or stall a run, only to surface one error at Close.
type OTLPWriter struct {
	bw  *bufio.Writer
	err error
}

// NewOTLPWriter builds an exporter writing to w. The caller owns w;
// Close flushes but does not close it.
func NewOTLPWriter(w io.Writer) *OTLPWriter {
	return &OTLPWriter{bw: bufio.NewWriterSize(w, 1<<16)}
}

// OpenOTLPFile opens path for appending, creating it if needed, and
// returns an exporter writing to it (the CLIs' -trace-file) and a close
// function that flushes the exporter and then closes the file.
func OpenOTLPFile(path string) (*OTLPWriter, func() error, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	o := NewOTLPWriter(f)
	return o, func() error { return errors.Join(o.Close(), f.Close()) }, nil
}

// otlpSpan is the wire shape of one span line.
type otlpSpan struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	ParentSpanID      string     `json:"parentSpanId,omitempty"`
	Name              string     `json:"name"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Attributes        []otlpAttr `json:"attributes,omitempty"`
	Status            *otlpStat  `json:"status,omitempty"`
}

type otlpAttr struct {
	Key   string `json:"key"`
	Value struct {
		StringValue string `json:"stringValue"`
	} `json:"value"`
}

type otlpStat struct {
	Code    int    `json:"code"`
	Message string `json:"message,omitempty"`
}

// ExportSpan implements Exporter.
func (o *OTLPWriter) ExportSpan(rec *SpanRecord) {
	if o.err != nil {
		return
	}
	s := otlpSpan{
		TraceID:           rec.Trace.String(),
		SpanID:            rec.ID.String(),
		Name:              rec.Name,
		StartTimeUnixNano: fmt.Sprintf("%d", rec.Start.UnixNano()),
		EndTimeUnixNano:   fmt.Sprintf("%d", rec.Start.Add(rec.Duration).UnixNano()),
	}
	if !rec.Parent.IsZero() {
		s.ParentSpanID = rec.Parent.String()
	}
	for _, a := range rec.Attrs {
		oa := otlpAttr{Key: a.Key}
		oa.Value.StringValue = a.Value
		s.Attributes = append(s.Attributes, oa)
	}
	if rec.Err != "" {
		s.Status = &otlpStat{Code: 2, Message: rec.Err} // STATUS_CODE_ERROR
	}
	b, err := json.Marshal(s)
	if err != nil {
		o.err = err
		return
	}
	if _, err := o.bw.Write(b); err != nil {
		o.err = err
		return
	}
	o.err = o.bw.WriteByte('\n')
}

// Err returns the first write error latched so far.
func (o *OTLPWriter) Err() error { return o.err }

// Close flushes buffered lines and returns the first error encountered
// anywhere. It does not close the underlying writer.
func (o *OTLPWriter) Close() error {
	if err := o.bw.Flush(); o.err == nil {
		o.err = err
	}
	return o.err
}

// WritePerfetto renders a batch of span records as Chrome trace-event
// JSON loadable in ui.perfetto.dev — the download format of the
// /debug/trace endpoint. Each trace becomes one thread track (named by
// its root span, or its job attribute when present) in a synthetic
// "traces" process, so concurrent jobs render side by side; spans are
// complete ("X") events with their attributes in args. Timestamps are
// wall-clock microseconds, matching the nanosecond-precision span
// records closely enough for operator reading.
func WritePerfetto(w io.Writer, recs []SpanRecord) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	const pid = 1
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	emit(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":"traces"}}`, pid)

	// One tid per trace, in first-appearance order; the track is named by
	// the first record seen for the trace (snapshots are oldest-first, so
	// that is the root for complete traces).
	tids := map[TraceID]int{}
	for i := range recs {
		rec := &recs[i]
		tid, ok := tids[rec.Trace]
		if !ok {
			tid = len(tids)
			tids[rec.Trace] = tid
			label := rec.Name
			if job := rec.AttrValue("job"); job != "" {
				label = "job " + job
			}
			name, _ := json.Marshal(fmt.Sprintf("%s [%.8s]", label, rec.Trace.String()))
			emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`, pid, tid, name)
		}
		args := map[string]string{
			"trace": rec.Trace.String(),
			"span":  rec.ID.String(),
		}
		if !rec.Parent.IsZero() {
			args["parent"] = rec.Parent.String()
		}
		for _, a := range rec.Attrs {
			args[a.Key] = a.Value
		}
		if rec.Err != "" {
			args["error"] = rec.Err
		}
		if rec.Open {
			args["open"] = "true"
		}
		argJSON, err := json.Marshal(args)
		if err != nil {
			return err
		}
		nameJSON, _ := json.Marshal(rec.Name)
		dur := rec.Duration.Microseconds()
		if dur < 1 {
			dur = 1 // zero-width slices are invisible in the UI
		}
		emit(`{"name":%s,"cat":"span","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":%s}`,
			nameJSON, rec.Start.UnixMicro(), dur, pid, tid, argJSON)
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
