package tracing

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParseTraceparent: an outside traceparent header must never panic
// the parser, and a value it accepts has non-zero IDs and renders back
// as the lower-cased input.
func FuzzParseTraceparent(f *testing.F) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	f.Add(valid)
	f.Add(strings.ToUpper(valid))
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add(Span{}.Traceparent())
	f.Add("ff" + valid[2:])
	f.Add(valid[:54])
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		trace, span, flags, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if trace.IsZero() || span.IsZero() {
			t.Fatalf("ParseTraceparent(%q) accepted a zero ID: %s %s", s, trace, span)
		}
		if got, want := fmt.Sprintf("00-%s-%s-%02x", trace, span, flags), strings.ToLower(s); got != want {
			t.Fatalf("ParseTraceparent(%q) renders back as %q, want %q", s, got, want)
		}
	})
}
