package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"
)

// Trace is the request-scoped observability context: a trace ID
// (generated, or honored from the client's X-Request-ID header) plus
// the per-stage span timings recorded while the request moved through
// server → predictor → loop. It travels in the
// context.Context, every slog line emitted with that context carries
// its ID (see NewLogger), and the serve layer echoes the ID in the
// X-Request-ID response header and the spans in Server-Timing.
type Trace struct {
	ID string

	mu    sync.Mutex
	spans []Span
}

// Span is one named stage timing inside a trace.
type Span struct {
	Name string
	Dur  time.Duration
}

// addSpan appends one stage timing. Safe for concurrent use — spans
// may be recorded from the request goroutine and from hooks it armed.
func (t *Trace) addSpan(name string, d time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Dur: d})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded stage timings.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// ServerTiming renders the spans as a Server-Timing header value
// ("batch;dur=1.21, infer;dur=3.40" — durations in milliseconds), ""
// when no spans were recorded.
func (t *Trace) ServerTiming() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return ""
	}
	var b strings.Builder
	for i, s := range t.spans {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s;dur=%.2f", s.Name, float64(s.Dur.Microseconds())/1e3)
	}
	return b.String()
}

type traceKey struct{}

// NewTraceID returns a fresh 16-hex-digit trace ID. math/rand/v2's
// global generator is seeded per process and safe for concurrent use;
// trace IDs need uniqueness within a debugging window, not
// cryptographic strength.
func NewTraceID() string { return fmt.Sprintf("%016x", rand.Uint64()) }

// WithTrace installs a trace on the context. An empty id generates a
// fresh one; client-supplied IDs are truncated to 128 bytes so a
// hostile header cannot bloat logs.
func WithTrace(ctx context.Context, id string) (context.Context, *Trace) {
	if id == "" {
		id = NewTraceID()
	} else if len(id) > 128 {
		id = id[:128]
	}
	tr := &Trace{ID: id}
	return context.WithValue(ctx, traceKey{}, tr), tr
}

// FromContext returns the context's trace, nil when none is installed.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// TraceID returns the context's trace ID, "" when none is installed.
func TraceID(ctx context.Context) string {
	if tr := FromContext(ctx); tr != nil {
		return tr.ID
	}
	return ""
}

// StartSpan begins a named stage timing and returns its closer: the
// closer observes the elapsed nanoseconds into h (when non-nil) and
// records the span on the context's trace (when one is installed), so
// one call site feeds both the aggregate histogram and the per-request
// Server-Timing view.
func StartSpan(ctx context.Context, name string, h *Histogram) func() {
	t0 := time.Now()
	return func() {
		d := time.Since(t0)
		if h != nil {
			h.Observe(d.Nanoseconds())
		}
		if tr := FromContext(ctx); tr != nil {
			tr.addSpan(name, d)
		}
	}
}
