package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Log flag values accepted by ParseLogFormat / ParseLogLevel — the
// -log-format and -log-level grammars shared by every command (wired
// through internal/cliflags so they validate at flag-parse time).
const (
	LogFormatText = "text"
	LogFormatJSON = "json"
)

// ParseLogFormat validates a -log-format value.
func ParseLogFormat(s string) (string, error) {
	switch strings.ToLower(s) {
	case LogFormatText:
		return LogFormatText, nil
	case LogFormatJSON:
		return LogFormatJSON, nil
	}
	return "", fmt.Errorf("unknown log format %q (want text or json)", s)
}

// ParseLogLevel validates a -log-level value.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// NewLogger builds the structured logger the commands install as
// slog.Default: a text or JSON handler at the given level, wrapped so
// every record logged with a context carrying a Trace (slog.*Context
// calls) gains a trace_id attribute — the glue that makes one request's
// log lines greppable across server, predictor and loop.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	f, err := ParseLogFormat(format)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if f == LogFormatJSON {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(traceHandler{h}), nil
}

// traceHandler decorates records with the context's trace ID.
type traceHandler struct{ slog.Handler }

func (h traceHandler) Handle(ctx context.Context, r slog.Record) error {
	if id := TraceID(ctx); id != "" {
		r.AddAttrs(slog.String("trace_id", id))
	}
	return h.Handler.Handle(ctx, r)
}

func (h traceHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return traceHandler{h.Handler.WithAttrs(attrs)}
}

func (h traceHandler) WithGroup(name string) slog.Handler {
	return traceHandler{h.Handler.WithGroup(name)}
}
