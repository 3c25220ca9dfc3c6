package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of each workload sees; every workload
// reports all of them in an untraced run. latency_ms and throughput_per_s
// are each workload's headline time and rate (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rss_mb", "MB", "lower"},
	{"latency_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
}

// perLayer are the traced run's metrics, named after the module they
// measure. A layer a workload does not reach reports 0. Better is the
// direction an optimisation of that layer should move the metric.
var perLayer = []metricDef{
	{"synth.evaluate_s", "s", "lower"},
	{"synth.flows", "count", "higher"},
	{"synth.direct_steps", "count", "lower"},
	{"synth.transforms_run", "count", "lower"},
	{"synth.sharing", "ratio", "higher"},
	{"synth.transition_hits", "count", "higher"},
	{"synth.victim_hits", "count", "higher"},
	{"synth.evicted_misses", "count", "lower"},
	{"synth.map_calls", "count", "lower"},
	{"synth.map_cache_hits", "count", "higher"},
	{"synth.peak_graphs", "count", "lower"},
	{"synth.us_per_transform", "us", "lower"},
	{"label.fit_ms", "ms", "lower"},
	{"label.fit_calls", "count", "lower"},
	{"train.steps", "count", "higher"},
	{"train.step_ms", "ms", "lower"},
	{"train.accuracy_ms", "ms", "lower"},
	{"train.dataset_ms", "ms", "lower"},
	{"nn.compile_ms", "ms", "lower"},
	{"nn.predict_flows_per_s", "1/s", "higher"},
	{"core.pool_gen_ms", "ms", "lower"},
	{"core.select_ms", "ms", "lower"},
	{"core.run_self_s", "s", "lower"},
	{"core.verify_s", "s", "lower"},
	{"serve.parse_us", "us", "lower"},
	{"serve.batch_us", "us", "lower"},
	{"serve.score_us", "us", "lower"},
	{"serve.http_us", "us", "lower"},
	{"serve.mean_batch", "count", "higher"},
	{"serve.batches", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.cancelled", "count", "lower"},
	{"serve.cache_hit_rate", "ratio", "higher"},
	{"serve.recommend_score_ms", "ms", "lower"},
	{"loop.labeled", "count", "higher"},
	{"loop.observed", "count", "higher"},
	{"loop.dropped", "count", "lower"},
	{"loop.explored", "count", "higher"},
	{"loop.retrains", "count", "higher"},
	{"loop.published", "count", "higher"},
	{"loop.rejected", "count", "lower"},
	{"loop.persisted", "count", "higher"},
	{"loop.journal_errors", "count", "lower"},
	{"loop.retrain_round_ms", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "lower"},
	{"runtime.gc_pause_max_ms", "ms", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.cpu_s", "s", "lower"},
	{"harness.gen_late_max_ms", "ms", "lower"},
	{"harness.gen_late_p99_ms", "ms", "lower"},
	{"harness.ops", "count", "higher"},
	{"harness.ops_failed", "count", "lower"},
	{"harness.trace_overhead_frac", "ratio", "lower"},
}

// metric is one measured value as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one measurement pass of a workload: its inputs (seed, length,
// tracer) and everything it measured. Operations are requests, rounds,
// passes and correctness checks; a failed one fails the run.
type run struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil in an untraced pass
	metrics map[string]metric
	order   []string

	mu     sync.Mutex // senders check concurrently
	ops    int64
	failed int64
}

func newRun(seed int64, seconds time.Duration, tr *tracer) *run {
	return &run{seed: seed, seconds: seconds, tr: tr, metrics: map[string]metric{}}
}

// set records a metric; the first set fixes its print position.
func (r *run) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{v, unit}
}

// check counts one operation (a request, round, pass or correctness
// check) and fails it, logging the formatted reason, when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	if !ok {
		r.failed++
		fmt.Fprintln(os.Stderr, "bench: FAIL:", fmt.Sprintf(format, args...))
	}
}

// quantile returns the q-quantile of ascending samples by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tail returns the q-quantile only when at least ten samples lie beyond
// it, the fewest that make a tail percentile worth reporting.
func tail(sorted []float64, q float64) (float64, bool) {
	if float64(len(sorted))*(1-q) < 10 {
		return 0, false
	}
	return quantile(sorted, q), true
}

// median returns the middle of unsorted values (mean of the two middle
// ones for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// missFrac is the share of samples slower than limit (failures included).
func missFrac(sorted []float64, limit float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(sorted, math.Nextafter(limit, math.Inf(1)))
	return float64(len(sorted)-i) / float64(len(sorted))
}

// procSample is the process-wide resource state at one instant.
type procSample struct {
	mem   runtime.MemStats
	cpu   time.Duration
	maxKB int64
}

func sampleProc() procSample {
	var s procSample
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.maxKB = int64(ru.Maxrss) // kilobytes on Linux
	}
	return s
}

// watchRSS samples the resident set size every 10 ms until the
// returned stop is called, which returns the median in MB: the run's
// typical footprint. The peak moves too much from run to run with GC
// timing to be compared.
func watchRSS() (stop func() float64) {
	var samples []float64
	read := func() {
		b, err := os.ReadFile("/proc/self/statm")
		if err != nil {
			return
		}
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				samples = append(samples, pages*float64(os.Getpagesize())/(1<<20))
			}
		}
	}
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(done)
		<-finished
		read()
		return median(samples)
	}
}

// setRuntime records the Go runtime's work between two samples.
func (r *run) setRuntime(a, b procSample) {
	r.set("runtime.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC), "count")
	r.set("runtime.gc_pause_total_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6, "ms")
	var maxPause uint64
	for i := a.mem.NumGC; i < b.mem.NumGC && i-a.mem.NumGC < 256; i++ {
		maxPause = max(maxPause, b.mem.PauseNs[i%256])
	}
	r.set("runtime.gc_pause_max_ms", float64(maxPause)/1e6, "ms")
	r.set("runtime.alloc_mb", float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/(1<<20), "MB")
	r.set("runtime.cpu_s", (b.cpu - a.cpu).Seconds(), "s")
}

// setups is how many times each workload builds its system to time it.
const setups = 9

// timeMedian builds a system n times and returns the last build and the
// median build time: set-up is timed several times so one slow start
// does not move setup_s. release (if non-nil) frees each earlier build.
func timeMedian[T any](n int, build func() (T, error), release func(T)) (T, float64, error) {
	var v T
	times := make([]float64, n)
	for i := range times {
		t0 := time.Now()
		next, err := build()
		times[i] = time.Since(t0).Seconds()
		if i > 0 && release != nil {
			release(v)
		}
		v = next
		if err != nil {
			return v, 0, err
		}
	}
	return v, median(times), nil
}
