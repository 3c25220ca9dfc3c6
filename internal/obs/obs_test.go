package obs

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// TestRegistryIdempotent checks that asking for the same name+labels
// returns the same metric instance, and that distinct label values get
// distinct series.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("flowgen_test_total", "help", Label{"endpoint", "predict"})
	b := r.Counter("flowgen_test_total", "help", Label{"endpoint", "predict"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("flowgen_test_total", "help", Label{"endpoint", "recommend"})
	if a == c {
		t.Fatal("distinct label values share a counter")
	}
	a.Add(2)
	a.Inc()
	if b.Value() != 3 || c.Value() != 0 {
		t.Fatalf("counter values %d/%d, want 3/0", b.Value(), c.Value())
	}

	g := r.Gauge("flowgen_test_depth", "help")
	g.Set(4.5)
	g.Add(-1.5)
	if g.Value() != 3 {
		t.Fatalf("gauge %v, want 3", g.Value())
	}
	if h1, h2 := r.Histogram("flowgen_test_sizes", "help"), r.Histogram("flowgen_test_sizes", "help"); h1 != h2 {
		t.Fatal("histogram not idempotent")
	}
}

// TestRegistryKindMismatchPanics: re-registering a name as a different
// metric kind is a programming error and must fail loudly.
func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("flowgen_test_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("flowgen_test_total", "help")
}

// TestRegistryInvalidNamePanics: names outside the Prometheus grammar
// must fail loudly at registration.
func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9lead", "has space", "dash-ed", "ünicode"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "help")
		}()
	}
}

// TestNilRegistry: all constructors on a nil registry return functional
// unregistered metrics, so instrumented library code needs no guards.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("flowgen_x_total", "h").Inc()
	r.Gauge("flowgen_x", "h").Set(1)
	r.Histogram("flowgen_x_sizes", "h").Observe(5)
	r.DurationHistogram("flowgen_x_seconds", "h").Observe(5)
	r.CounterFunc("flowgen_x_fn_total", "h", func() int64 { return 1 })
	r.GaugeFunc("flowgen_x_fn", "h", func() float64 { return 1 })
	var buf bytes.Buffer
	r.WritePrometheus(&buf) // no-op, no panic
	if buf.Len() != 0 {
		t.Fatalf("nil registry rendered %q", buf.String())
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// TestWritePrometheusFormat renders a populated registry and validates
// every line against the text exposition grammar, including HELP/TYPE
// headers, label escaping, summary quantiles and the _max gauge.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("flowgen_req_total", "requests", Label{"endpoint", "predict"}).Add(7)
	r.Gauge("flowgen_depth", "queue depth").Set(3)
	r.GaugeFunc("flowgen_cb", "callback gauge", func() float64 { return 2.5 })
	r.CounterFunc("flowgen_cb_total", "callback counter", func() int64 { return 9 })
	h := r.DurationHistogram("flowgen_lat_seconds", `latency with "quotes" and \slashes`, Label{"endpoint", `we"ird\`})
	for i := 1; i <= 1000; i++ {
		h.Observe(int64(i) * 1e6) // 1..1000 ms
	}

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()

	seenHelp, seenType := 0, 0
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			seenHelp++
		case strings.HasPrefix(line, "# TYPE "):
			seenType++
		default:
			if !promLine.MatchString(line) {
				t.Errorf("malformed sample line %q", line)
			}
		}
	}
	if seenHelp < 6 || seenType < 6 {
		t.Errorf("HELP/TYPE headers %d/%d, want ≥6 each\n%s", seenHelp, seenType, out)
	}

	for _, want := range []string{
		`flowgen_req_total{endpoint="predict"} 7`,
		"flowgen_depth 3",
		"flowgen_cb 2.5",
		"flowgen_cb_total 9",
		"# TYPE flowgen_lat_seconds summary",
		`quantile="0.5"`,
		`quantile="0.95"`,
		`quantile="0.99"`,
		"flowgen_lat_seconds_count",
		"flowgen_lat_seconds_sum",
		"# TYPE flowgen_lat_seconds_max gauge",
		`endpoint="we\"ird\\"`, // escaped label value
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Duration scaling: the max of 1000 observed milliseconds is 1 second.
	if !strings.Contains(out, "flowgen_lat_seconds_max{") {
		t.Errorf("missing labeled max series\n%s", out)
	}
	if !strings.Contains(out, "} 1\n") {
		t.Errorf("1000ms max should render as 1 (second)\n%s", out)
	}
}

// TestRegistryHandler serves /metrics over HTTP and checks content type
// and body.
func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("flowgen_hits_total", "hits").Add(3)
	RegisterProcessMetrics(r)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"flowgen_hits_total 3", "flowgen_process_goroutines", "flowgen_process_uptime_seconds", "flowgen_process_heap_alloc_bytes"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q\n%s", want, body)
		}
	}
}

// TestGaugeFuncReplace: re-registering a callback replaces it (a second
// server on one registry re-registers its cache series; the newest
// callback must win).
func TestGaugeFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("flowgen_depth", "h", func() float64 { return 1 })
	r.GaugeFunc("flowgen_depth", "h", func() float64 { return 2 })
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "flowgen_depth 2") {
		t.Fatalf("replaced callback not used:\n%s", buf.String())
	}
}

// TestCounterAllocs: the counter/gauge hot paths are allocation-free.
func TestCounterAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flowgen_x_total", "h")
	g := r.Gauge("flowgen_x", "h")
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc(); g.Set(3) }); allocs != 0 {
		t.Fatalf("counter/gauge update allocates %.1f per call", allocs)
	}
}

func ExampleRegistry_WritePrometheus() {
	r := NewRegistry()
	r.Counter("flowgen_example_total", "an example counter").Add(42)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	fmt.Print(buf.String())
	// Output:
	// # HELP flowgen_example_total an example counter
	// # TYPE flowgen_example_total counter
	// flowgen_example_total 42
}
