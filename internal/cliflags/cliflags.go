// Package cliflags holds the flag definitions shared by the flowgen
// command-line tools (flowgen, flowexp, flowserve, qor-distro), so
// -design, -seed, -m, -memo and the worker-count flags parse and
// document identically everywhere instead of being copy-pasted per
// command. Helpers take the FlagSet explicitly; commands pass
// flag.CommandLine.
package cliflags

import (
	"flag"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"flowgen/internal/circuits"
	"flowgen/internal/obs"
)

// designValue validates -design against the circuit generator registry
// at parse time, so an unknown design fails before any work starts.
type designValue struct{ name *string }

func (v designValue) String() string {
	if v.name == nil {
		return ""
	}
	return *v.name
}

func (v designValue) Set(s string) error {
	if _, err := circuits.ByName(s); err != nil {
		return fmt.Errorf("%v (known: %s)", err, strings.Join(circuits.Names(), ", "))
	}
	*v.name = s
	return nil
}

// Design registers -design with the given default and usage, validated
// against the circuit registry at parse time.
func Design(fs *flag.FlagSet, def, usage string) *string {
	name := def
	fs.Var(designValue{&name}, "design", usage)
	return &name
}

// Seed registers -seed with the given default.
func Seed(fs *flag.FlagSet, def int64) *int64 {
	return fs.Int64("seed", def, "random seed")
}

// M registers -m, the flow-repetition count, with the given default.
func M(fs *flag.FlagSet, def int) *int {
	return fs.Int("m", def, "flow repetitions m (paper: 4)")
}

// Memo registers -memo (default true).
func Memo(fs *flag.FlagSet) *bool {
	return fs.Bool("memo", true, "prefix-memoized QoR collection (false = independent per-flow synthesis)")
}

// Workers registers a worker-count flag under the given name, where
// the zero default means "pick for me" (GOMAXPROCS, or the consumer's
// own documented default).
func Workers(fs *flag.FlagSet, name, usage string) *int {
	return fs.Int(name, 0, usage)
}

// positiveDurationValue adapts a strictly positive time.Duration to
// flag.Value, so deadline/backoff flags like -request-timeout reject
// zero and negative values at flag.Parse with the legal forms listed,
// instead of silently disabling a resilience guard deep inside main.
type positiveDurationValue struct{ d *time.Duration }

func (v positiveDurationValue) String() string {
	if v.d == nil {
		return "0s"
	}
	return v.d.String()
}

func (v positiveDurationValue) Set(s string) error {
	d, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("invalid duration %q (legal forms: 500ms, 30s, 2m, 1h)", s)
	}
	if d <= 0 {
		return fmt.Errorf("duration must be positive, got %v (legal forms: 500ms, 30s, 2m, 1h)", d)
	}
	*v.d = d
	return nil
}

// PositiveDuration registers a duration flag under name that rejects
// non-positive values at parse time. def must itself be positive.
func PositiveDuration(fs *flag.FlagSet, name string, def time.Duration, usage string) *time.Duration {
	if def <= 0 {
		panic(fmt.Sprintf("cliflags: -%s default %v is not positive", name, def))
	}
	d := def
	fs.Var(positiveDurationValue{&d}, name, usage)
	return &d
}

// logFormatValue validates -log-format through obs.ParseLogFormat at
// parse time, so "-log-format xml" fails with the flag parser's usage
// output instead of deep inside main.
type logFormatValue struct{ f *string }

func (v logFormatValue) String() string {
	if v.f == nil {
		return obs.LogFormatText
	}
	return *v.f
}

func (v logFormatValue) Set(s string) error {
	f, err := obs.ParseLogFormat(s)
	if err != nil {
		return err
	}
	*v.f = f
	return nil
}

// LogFormat registers -log-format (text or json, default text).
func LogFormat(fs *flag.FlagSet) *string {
	f := obs.LogFormatText
	fs.Var(logFormatValue{&f}, "log-format", "structured log format: text or json")
	return &f
}

// logLevelValue validates -log-level through obs.ParseLogLevel at
// parse time.
type logLevelValue struct{ l *slog.Level }

func (v logLevelValue) String() string {
	if v.l == nil {
		return strings.ToLower(slog.LevelInfo.String())
	}
	return strings.ToLower(v.l.String())
}

func (v logLevelValue) Set(s string) error {
	l, err := obs.ParseLogLevel(s)
	if err != nil {
		return err
	}
	*v.l = l
	return nil
}

// LogLevel registers -log-level (debug, info, warn or error; default
// info).
func LogLevel(fs *flag.FlagSet) *slog.Level {
	l := slog.LevelInfo
	fs.Var(logLevelValue{&l}, "log-level", "minimum log level: debug, info, warn or error")
	return &l
}
