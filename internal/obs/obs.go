// Package obs is the zero-dependency observability layer shared by the
// serving stack: atomic counters and gauges, lock-free log-bucketed
// latency histograms with quantile extraction, a process-wide metric
// registry with Prometheus text-format exposition, request-scoped trace
// IDs propagated through context.Context, and structured logging glue
// over log/slog that stamps every log line with the active trace ID.
//
// Design constraints, in order:
//
//   - the observe path must be free to call from hot loops (request
//     stage spans, per-request middleware): Counter.Add,
//     Gauge.Set and Histogram.Observe are a handful of atomic ops,
//     allocation-free, and benchmarked under 100ns;
//   - readers (the /metrics scrape, /v1/stats) are rare and may do
//     real work: quantiles snapshot the bucket array on demand;
//   - instrumentation must be unconditional at call sites: every
//     constructor works on a nil *Registry and returns functional
//     (merely unregistered) metrics, so library code never guards
//     metric updates behind nil checks.
//
// Metric naming follows the Prometheus conventions: a flowgen_ prefix,
// snake_case, base units (seconds, bytes) with the unit as the name
// suffix, _total on counters. Histograms record raw int64 values —
// durations in nanoseconds — and the exposition layer scales duration
// families to seconds (DESIGN.md §9 documents the scheme).
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension (e.g. {Key: "endpoint", Value:
// "predict"}). Series within a family are distinguished by their
// rendered label sets.
type Label struct{ Key, Value string }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind discriminates family types for exposition and mismatch
// detection.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "summary" // histograms expose quantiles, i.e. a summary
	}
}

// series is one labeled time series inside a family. Exactly one of the
// value fields is set, matching the family kind (fn overrides the
// struct values when present — callback-backed counters and gauges).
type series struct {
	labels string // rendered `{k="v",...}` or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family is one named metric with its help text and labeled series.
type family struct {
	name, help string
	kind       metricKind
	scale      float64 // exposition divisor (1e9 for ns→s duration histograms)

	mu     sync.Mutex
	series map[string]*series
	order  []string // insertion-ordered label keys for stable output
}

func (f *family) get(labels string) (*series, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[labels]
	return s, ok
}

// put installs (or replaces, for callback series) the series under its
// label set and returns the one stored.
func (f *family) put(labels string, s *series) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if prev, ok := f.series[labels]; ok {
		if s.fn != nil {
			prev.fn = s.fn // re-registered callback: latest wins
		}
		return prev
	}
	s.labels = labels
	f.series[labels] = s
	f.order = append(f.order, labels)
	return s
}

// Registry holds named metric families. All methods are safe for
// concurrent use, idempotent (asking for an existing name+labels
// returns the same metric), and work on a nil receiver by returning
// functional unregistered metrics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// defaultRegistry is the process-wide registry: cmd binaries expose it
// on /metrics, and package-level instrumentation (predictor compiles)
// records into it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// family resolves (creating if needed) the named family, panicking on
// invalid names or a kind mismatch with an earlier registration — both
// are programming errors, caught by the first test that touches the
// metric.
func (r *Registry) family(name, help string, kind metricKind, scale float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, scale: scale, series: map[string]*series{}}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter returns the counter registered under name and labels,
// creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	f := r.family(name, help, kindCounter, 1)
	ls := renderLabels(labels)
	if s, ok := f.get(ls); ok {
		return s.c
	}
	return f.put(ls, &series{c: &Counter{}}).c
}

// CounterFunc registers a callback-backed counter — for subsystems that
// already keep their own atomic counts (cache hits, loop counters). fn
// must be monotonically non-decreasing and safe to call from the
// exposition goroutine. Re-registering replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	f := r.family(name, help, kindCounter, 1)
	f.put(renderLabels(labels), &series{fn: func() float64 { return float64(fn()) }})
}

// Gauge returns the gauge registered under name and labels, creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	f := r.family(name, help, kindGauge, 1)
	ls := renderLabels(labels)
	if s, ok := f.get(ls); ok {
		return s.g
	}
	return f.put(ls, &series{g: &Gauge{}}).g
}

// GaugeFunc registers a callback-backed gauge, sampled at exposition
// time (queue depths, dataset sizes, memo-table statistics). fn must be
// safe to call from the exposition goroutine. Re-registering replaces
// the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	f := r.family(name, help, kindGauge, 1)
	f.put(renderLabels(labels), &series{fn: fn})
}

// Histogram returns the value histogram registered under name and
// labels (batch sizes, sample counts — raw int64 observations exposed
// unscaled), creating it on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.histogram(name, help, 1, labels)
}

// DurationHistogram returns a histogram whose observations are
// nanosecond durations; the exposition layer divides by 1e9 so the
// family reads in seconds, matching its _seconds name suffix.
func (r *Registry) DurationHistogram(name, help string, labels ...Label) *Histogram {
	return r.histogram(name, help, 1e9, labels)
}

func (r *Registry) histogram(name, help string, scale float64, labels []Label) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	f := r.family(name, help, kindHistogram, scale)
	ls := renderLabels(labels)
	if s, ok := f.get(ls); ok {
		return s.h
	}
	return f.put(ls, &series{h: &Histogram{}}).h
}

// promQuantiles are the quantile series every histogram family exposes.
var promQuantiles = []float64{0.5, 0.95, 0.99}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4): counters and gauges as single
// series, histograms as summaries (quantile series + _sum + _count)
// plus a _max gauge family tracking the exact largest observation.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		order := append([]string(nil), f.order...)
		rows := make([]*series, len(order))
		for i, ls := range order {
			rows[i] = f.series[ls]
		}
		f.mu.Unlock()
		if len(rows) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		switch f.kind {
		case kindCounter, kindGauge:
			for _, s := range rows {
				v := 0.0
				switch {
				case s.fn != nil:
					v = s.fn()
				case s.c != nil:
					v = float64(s.c.Value())
				case s.g != nil:
					v = s.g.Value()
				}
				fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(v))
			}
		case kindHistogram:
			for _, s := range rows {
				snap := s.h.Snapshot()
				for _, q := range promQuantiles {
					fmt.Fprintf(w, "%s%s %s\n", f.name,
						injectLabel(s.labels, "quantile", formatValue(q)),
						formatValue(snap.Quantile(q)/f.scale))
				}
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatValue(float64(snap.Sum)/f.scale))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, snap.Count)
			}
			fmt.Fprintf(w, "# HELP %s_max largest single observation of %s\n", f.name, f.name)
			fmt.Fprintf(w, "# TYPE %s_max gauge\n", f.name)
			for _, s := range rows {
				fmt.Fprintf(w, "%s_max%s %s\n", f.name, s.labels, formatValue(float64(s.h.Max())/f.scale))
			}
		}
	}
}

// Handler returns the GET /metrics endpoint over this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// RegisterProcessMetrics registers runtime-level gauges (goroutines,
// heap, GC cycles, uptime) on the registry — the process block every
// service exposition wants, sampled at scrape time.
func RegisterProcessMetrics(r *Registry) {
	start := time.Now()
	r.GaugeFunc("flowgen_process_uptime_seconds", "seconds since the process registered its metrics",
		func() float64 { return time.Since(start).Seconds() })
	r.GaugeFunc("flowgen_process_goroutines", "current goroutine count",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("flowgen_process_heap_alloc_bytes", "bytes of allocated heap objects",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	r.GaugeFunc("flowgen_process_gc_cycles_total", "completed GC cycles",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
}

// ----------------------------------------------------------- rendering

// validName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels renders a label set as `{k="v",...}` with escaped
// values, or "" when empty. Labels keep their given order — call sites
// pass them consistently.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// injectLabel adds one more label pair to an already rendered set (the
// quantile label on summary rows).
func injectLabel(rendered, key, value string) string {
	pair := key + `="` + value + `"`
	if rendered == "" {
		return "{" + pair + "}"
	}
	return rendered[:len(rendered)-1] + "," + pair + "}"
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a float the way Prometheus parsers expect.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}
