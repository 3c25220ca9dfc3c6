package obs

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"flowgen/internal/stats"
)

// TestHistogramBucketIndexMonotone proves the bucket mapping is
// monotone and that bucketBounds inverts bucketIndex: every value lands
// inside the bounds of its own bucket.
func TestHistogramBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 7, 8, 9, 15, 16, 17, 100, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%d)=%d not monotone (prev %d)", v, i, prev)
		}
		prev = i
		lo, hi := bucketBounds(i)
		if v < lo || (v > hi && hi > 0) { // hi overflows only for the top bucket
			t.Fatalf("value %d outside its bucket %d bounds [%d,%d]", v, i, lo, hi)
		}
		if i >= nHistBuckets {
			t.Fatalf("bucketIndex(%d)=%d out of range %d", v, i, nHistBuckets)
		}
	}
	// Exhaustive small-value check: exact unit buckets.
	for v := int64(0); v < histSub; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("small value %d → bucket %d, want exact", v, got)
		}
	}
}

// TestHistogramQuantileAccuracy draws lognormal-ish latency samples and
// checks the histogram quantiles against the exact stats.Percentile of
// the same sample. The log-bucketed layout guarantees ≤12.5% relative
// bucket width, so midpoint interpolation must land within ~7% of the
// exact percentile.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	var h Histogram
	xs := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Latency-shaped sample: exp of a normal, scaled to ~1ms.
		v := int64(math.Exp(rng.NormFloat64()*0.8+13) + 1)
		h.Observe(v)
		xs = append(xs, float64(v))
	}
	snap := h.Snapshot()
	if snap.Count != 20000 {
		t.Fatalf("count %d, want 20000", snap.Count)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
		exact := stats.Percentile(xs, q*100)
		got := snap.Quantile(q)
		if relErr := math.Abs(got-exact) / exact; relErr > 0.07 {
			t.Errorf("q%.2f: histogram %.0f vs exact %.0f (rel err %.3f > 0.07)", q, got, exact, relErr)
		}
	}
	if got, want := snap.Quantile(1), stats.Percentile(xs, 100); got != want {
		t.Errorf("q1.0 = %.0f, want the exact max %.0f", got, want)
	}
}

// TestHistogramConcurrent hammers one histogram from many writers while
// a reader snapshots — the -race CI job proves the observe path is
// data-race free, and the final count/sum must be exact since every
// write is atomic.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const writers, perWriter = 8, 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				_ = s.Quantile(0.95)
				_ = h.Mean()
			}
		}
	}()
	var wantSum int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 3))
			for i := 0; i < perWriter; i++ {
				h.Observe(int64(rng.Uint64N(1 << 30)))
			}
		}(uint64(w))
	}
	// Deterministic expected sum: replay the same PRNG streams.
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewPCG(uint64(w), 3))
		for i := 0; i < perWriter; i++ {
			wantSum += int64(rng.Uint64N(1 << 30))
		}
	}
	// Writers done before stopping the reader: Wait on a copy group.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for h.Count() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if h.Count() != writers*perWriter {
		t.Fatalf("count %d, want %d", h.Count(), writers*perWriter)
	}
	if h.Sum() != wantSum {
		t.Fatalf("sum %d, want %d", h.Sum(), wantSum)
	}
}

// TestHistogramObserveAllocs asserts the observe path never allocates —
// the property that makes instrumenting every request stage free.
func TestHistogramObserveAllocs(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); allocs != 0 {
		t.Fatalf("Observe allocates %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { h.ObserveSince(time.Now()) }); allocs != 0 {
		t.Fatalf("ObserveSince allocates %.1f objects per call, want 0", allocs)
	}
}

// TestHistogramEmpty checks the zero-value histogram is usable and
// returns zeros everywhere.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("zero-value histogram not empty: count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	h.Observe(-5) // negative clamps, never panics
	if h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("negative observation: count=%d sum=%d, want 1/0", h.Count(), h.Sum())
	}
}

// BenchmarkHistogramObserve measures the single-writer observe cost —
// the acceptance bar is <100ns so every request stage can be
// instrumented for free.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) & 0xFFFFF)
	}
}

// BenchmarkHistogramObserveParallel measures the contended observe cost
// across GOMAXPROCS writers sharing one histogram.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(17)
		for pb.Next() {
			h.Observe(v)
			v = (v * 31) & 0xFFFFF
		}
	})
}
