package cliflags

import (
	"flag"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"flowgen/internal/obs"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestDesignFlag(t *testing.T) {
	fs := newFS()
	d := Design(fs, "alu16", "design under test")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *d != "alu16" {
		t.Fatalf("default design %q", *d)
	}

	fs = newFS()
	d = Design(fs, "alu16", "design under test")
	if err := fs.Parse([]string{"-design", "mont8"}); err != nil {
		t.Fatal(err)
	}
	if *d != "mont8" {
		t.Fatalf("parsed design %q", *d)
	}

	// Unknown designs are rejected at Parse with the known names listed.
	fs = newFS()
	Design(fs, "alu16", "design under test")
	err := fs.Parse([]string{"-design", "pentium4"})
	if err == nil || !strings.Contains(err.Error(), "alu16") {
		t.Fatalf("unknown design must fail at Parse listing known names, got %v", err)
	}
}

func TestLogFlags(t *testing.T) {
	fs := newFS()
	format := LogFormat(fs)
	level := LogLevel(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *format != obs.LogFormatText || *level != slog.LevelInfo {
		t.Fatalf("defaults format=%q level=%v, want text/info", *format, *level)
	}

	fs = newFS()
	format = LogFormat(fs)
	level = LogLevel(fs)
	if err := fs.Parse([]string{"-log-format", "JSON", "-log-level", "Debug"}); err != nil {
		t.Fatal(err)
	}
	if *format != obs.LogFormatJSON || *level != slog.LevelDebug {
		t.Fatalf("parsed format=%q level=%v, want json/debug", *format, *level)
	}

	// Bad values fail at flag.Parse, not later in main.
	fs = newFS()
	LogFormat(fs)
	if err := fs.Parse([]string{"-log-format", "xml"}); err == nil || !strings.Contains(err.Error(), "xml") {
		t.Fatalf("bad log format must fail at Parse, got %v", err)
	}
	fs = newFS()
	LogLevel(fs)
	if err := fs.Parse([]string{"-log-level", "loud"}); err == nil || !strings.Contains(err.Error(), "loud") {
		t.Fatalf("bad log level must fail at Parse, got %v", err)
	}
}

func TestPositiveDurationFlag(t *testing.T) {
	fs := newFS()
	d := PositiveDuration(fs, "request-timeout", 30*time.Second, "per-request deadline")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *d != 30*time.Second {
		t.Fatalf("default %v, want 30s", *d)
	}

	fs = newFS()
	d = PositiveDuration(fs, "request-timeout", 30*time.Second, "per-request deadline")
	if err := fs.Parse([]string{"-request-timeout", "250ms"}); err != nil {
		t.Fatal(err)
	}
	if *d != 250*time.Millisecond {
		t.Fatalf("parsed %v, want 250ms", *d)
	}

	// Zero, negative and garbage fail at Parse with the legal forms
	// listed, so a mistyped deadline never silently disables a guard.
	for _, bad := range []string{"0", "0s", "-5s", "banana", "10"} {
		fs := newFS()
		PositiveDuration(fs, "request-timeout", 30*time.Second, "per-request deadline")
		err := fs.Parse([]string{"-request-timeout", bad})
		if err == nil || !strings.Contains(err.Error(), "legal forms") {
			t.Fatalf("-request-timeout %s must fail at Parse listing legal forms, got %v", bad, err)
		}
	}

	// A non-positive default is a programming error, caught loudly.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-positive default did not panic")
			}
		}()
		PositiveDuration(newFS(), "bad", 0, "")
	}()
}

func TestScalarFlags(t *testing.T) {
	fs := newFS()
	seed := Seed(fs, 11)
	m := M(fs, 2)
	memo := Memo(fs)
	w := Workers(fs, "predworkers", "pool-prediction workers")
	if err := fs.Parse([]string{"-seed", "42", "-m", "3", "-memo=false", "-predworkers", "5"}); err != nil {
		t.Fatal(err)
	}
	if *seed != 42 || *m != 3 || *memo || *w != 5 {
		t.Fatalf("parsed seed=%d m=%d memo=%v workers=%d", *seed, *m, *memo, *w)
	}

	fs = newFS()
	seed = Seed(fs, 11)
	m = M(fs, 2)
	memo = Memo(fs)
	w = Workers(fs, "workers", "prediction workers")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *seed != 11 || *m != 2 || !*memo || *w != 0 {
		t.Fatalf("defaults seed=%d m=%d memo=%v workers=%d", *seed, *m, *memo, *w)
	}
}
