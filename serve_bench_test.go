// Serving-throughput benchmark for the micro-batching prediction
// scheduler. BenchmarkServePredict simulates concurrent single-flow
// clients two ways each iteration: through serve.Batcher (requests
// coalesce into batched GEMM forward passes) and through a per-request
// single-sample baseline — each request answered by the pre-refactor
// naive forward replica, exactly the "single-sample" baseline
// BenchmarkPredictPool measures against. Every batched response is
// cross-checked bit-identical to direct serve.Model.PredictFlows
// scoring of the same flow, and the speedup is reported as
// "x-vs-single-sample" (measured values in EXPERIMENTS.md). The additional
// "x-vs-per-request-gemm" metric is the honest modern comparison: a
// server answering each request with a batch-1 forward through the SAME
// GEMM engine on a per-request inference clone. Per-sample GEMM cost is
// nearly batch-independent in this engine, so on a single core that
// ratio hovers near 1 (the batcher's queue hops cost a little, the
// shared patch matrices and amortized allocations win a little back);
// the micro-batcher's case there is bounded queues, load shedding,
// cancellation and N× fewer scratch allocations under fan-in, not raw
// single-core arithmetic.
package flowgen

import (
	"context"
	"sync"
	"testing"
	"time"

	"flowgen/internal/core"
	"flowgen/internal/flow"
	"flowgen/internal/nn"
	"flowgen/internal/serve"
	"flowgen/internal/tensor"
	"flowgen/internal/train"
)

// BenchmarkServePredict measures micro-batched serving throughput under
// concurrent single-flow clients at FastArch scale.
func BenchmarkServePredict(b *testing.B) {
	const clients, perClient = 32, 16
	const total = clients * perClient
	space := flow.PaperSpace()
	h, w := core.EncodeShape(space)
	arch := nn.FastArch(7)
	arch.InH, arch.InW = h, w
	// Pinned to the f64 engine: this benchmark's claim is bit-identity
	// against direct f64 PredictFlows scoring plus the speedup over the
	// pre-refactor naive replica. The f32 serving fast path has its own
	// benchmark (BenchmarkServePredict32 in predict32_bench_test.go).
	model := &serve.Model{Name: "bench", Space: space, Arch: arch, Net: arch.Build(1), Precision: nn.F64}

	flows := space.RandomUnique(newRand(3), total)
	hw := h * w
	encs := make([][]float64, total)
	x := tensor.New(total, 1, h, w)
	for i, f := range flows {
		copy(x.Data[i*hw:(i+1)*hw], f.Encode(space, h, w))
		encs[i] = x.Data[i*hw : (i+1)*hw]
	}
	want, err := model.PredictFlows(context.Background(), flows, 1)
	if err != nil {
		b.Fatal(err)
	}

	runClients := func(fn func(idx int)) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					fn(c*perClient + i)
				}
			}(c)
		}
		wg.Wait()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Micro-batched serving path.
		batcher := serve.NewBatcher(func() (*serve.Model, error) { return model, nil },
			serve.BatcherConfig{MaxBatch: 64, QueueCap: total})
		mismatches := make(chan int, total)
		t0 := time.Now()
		runClients(func(idx int) {
			pred, err := batcher.Submit(context.Background(), encs[idx])
			if err != nil {
				b.Error(err)
				return
			}
			for j := range pred.Probs {
				if pred.Probs[j] != want[idx][j] {
					mismatches <- idx
					return
				}
			}
		})
		batched := time.Since(t0)
		st := batcher.Stats()
		batcher.Close()
		close(mismatches)
		if n := len(mismatches); n > 0 {
			b.Fatalf("%d/%d micro-batched responses differ from direct PredictFlows scoring", n, total)
		}
		if b.N == 1 && st.MaxBatch < 2 {
			b.Logf("warning: traffic never coalesced (max batch %d)", st.MaxBatch)
		}

		// Per-request single-sample baseline: the pre-refactor naive
		// forward per request, same client concurrency.
		t1 := time.Now()
		runClients(func(idx int) {
			probs := naiveForward(model.Net, x.SampleView(idx))
			if train.Argmax(probs) != train.Argmax(want[idx]) {
				b.Error("naive baseline argmax disagrees with batched scoring")
			}
		})
		naive := time.Since(t1)

		// Per-request batch-1 GEMM baseline: thread-safe per-request
		// serving without micro-batching (one inference clone per
		// request, single-sample forward through the batched layers).
		t2 := time.Now()
		runClients(func(idx int) {
			clone := model.Net.InferenceClone()
			clone.Predict(x.BatchView(idx, idx+1))
		})
		gemm1 := time.Since(t2)

		b.ReportMetric(float64(total)/batched.Seconds(), "flows/s")
		b.ReportMetric(st.MeanBatch(), "mean-batch")
		b.ReportMetric(naive.Seconds()/batched.Seconds(), "x-vs-single-sample")
		b.ReportMetric(gemm1.Seconds()/batched.Seconds(), "x-vs-per-request-gemm")
	}
}
