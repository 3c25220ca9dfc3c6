package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestNewTraceID checks format and (sampled) uniqueness.
func TestNewTraceID(t *testing.T) {
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if !hex16.MatchString(id) {
			t.Fatalf("trace id %q not 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q within 1000 draws", id)
		}
		seen[id] = true
	}
}

// TestWithTrace covers generation, client-supplied IDs, truncation and
// context retrieval.
func TestWithTrace(t *testing.T) {
	ctx, tr := WithTrace(context.Background(), "")
	if tr.ID == "" || TraceID(ctx) != tr.ID || FromContext(ctx) != tr {
		t.Fatalf("generated trace not propagated: %+v", tr)
	}

	ctx2, tr2 := WithTrace(context.Background(), "client-supplied-id")
	if tr2.ID != "client-supplied-id" || TraceID(ctx2) != "client-supplied-id" {
		t.Fatalf("client id not honored: %q", tr2.ID)
	}

	long := strings.Repeat("x", 1000)
	_, tr3 := WithTrace(context.Background(), long)
	if len(tr3.ID) != 128 {
		t.Fatalf("hostile id not truncated: %d bytes", len(tr3.ID))
	}

	if TraceID(context.Background()) != "" || FromContext(context.Background()) != nil {
		t.Fatal("bare context should have no trace")
	}
}

// TestSpans records spans through StartSpan and checks both the
// histogram side and the Server-Timing rendering.
func TestSpans(t *testing.T) {
	ctx, tr := WithTrace(context.Background(), "abc")
	var h Histogram
	done := StartSpan(ctx, "score", &h)
	time.Sleep(2 * time.Millisecond)
	done()
	StartSpan(ctx, "encode", nil)() // nil histogram: trace-only span

	if h.Count() != 1 || h.Max() < int64(time.Millisecond) {
		t.Fatalf("span histogram count=%d max=%d", h.Count(), h.Max())
	}
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "score" || spans[1].Name != "encode" {
		t.Fatalf("spans %+v", spans)
	}
	st := tr.ServerTiming()
	if !strings.HasPrefix(st, "score;dur=") || !strings.Contains(st, ", encode;dur=") {
		t.Fatalf("Server-Timing %q", st)
	}

	// Spans on a traceless context record only into the histogram.
	StartSpan(context.Background(), "orphan", &h)()
	if h.Count() != 2 {
		t.Fatalf("orphan span not observed: count %d", h.Count())
	}
	if tr.ServerTiming() == "" {
		t.Fatal("trace lost its spans")
	}
}

// TestLoggerTraceID checks that the slog handler stamps trace IDs onto
// records logged with a trace-carrying context, in both formats, and
// that levels filter.
func TestLoggerTraceID(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "json", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	ctx, tr := WithTrace(context.Background(), "")
	log.DebugContext(ctx, "predictor: scored request", "model", "alu", "flows", 3)
	log.InfoContext(context.Background(), "no trace here")

	dec := json.NewDecoder(&buf)
	var line1, line2 map[string]any
	if err := dec.Decode(&line1); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&line2); err != nil {
		t.Fatal(err)
	}
	if line1["trace_id"] != tr.ID || line1["model"] != "alu" {
		t.Fatalf("JSON log line missing trace_id/attrs: %v", line1)
	}
	if _, ok := line2["trace_id"]; ok {
		t.Fatalf("traceless log line grew a trace_id: %v", line2)
	}

	// Text format, WithAttrs/WithGroup keep the trace decoration.
	buf.Reset()
	tlog, err := NewLogger(&buf, "text", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	tlog = tlog.With("component", "serve").WithGroup("req")
	tlog.InfoContext(ctx, "served")
	tlog.DebugContext(ctx, "filtered out")
	out := buf.String()
	if !strings.Contains(out, "trace_id="+tr.ID) || !strings.Contains(out, "component=serve") {
		t.Fatalf("text log line %q", out)
	}
	if strings.Contains(out, "filtered out") {
		t.Fatalf("debug line leaked through info level: %q", out)
	}

	// Bad flag values fail at construction.
	if _, err := NewLogger(&buf, "xml", slog.LevelInfo); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Fatal("bad level accepted")
	}
	if lvl, err := ParseLogLevel("WARN"); err != nil || lvl != slog.LevelWarn {
		t.Fatalf("WARN parsed as %v/%v", lvl, err)
	}
}
