// Float32-inference benchmarks. BenchmarkPredictPool32 classifies the
// same 5000-flow pool as BenchmarkPredictPool through both precision
// engines — the f64 batched GEMM path and the packed f32 fast path —
// cross-checks their argmaxes in-bench (exact identity, modulo samples
// whose top-2 f64 logits are numerically tied), and reports the f32
// speedup as a measurement — only the argmax cross-check fails a run.
// BenchmarkServePredict32 is the
// serve-path variant: concurrent single-flow clients coalescing through
// serve.Batcher against an f32-precision model, each response
// argmax-checked against the f64 engine's scoring of the same flow.
//
// Each run appends an entry to the BENCH_predict32.json trajectory
// (see bench_record_test.go) so the repo carries a machine-readable
// perf history per box and commit.
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
	"flowgen/internal/train"
)

// tieGap returns the gap between the two largest elements.
func tieGap(xs []float64) float64 {
	best, second := xs[0], -1.0
	for _, v := range xs[1:] {
		if v > best {
			best, second = v, best
		} else if v > second {
			second = v
		}
	}
	return best - second
}

// benchTieEps: samples whose top-2 f64 probabilities sit closer than
// this are numerical ties — either argmax is legitimate under float32
// rounding, and they are excluded from the identity check (and counted,
// so a drift would still fail the run).
const benchTieEps = 1e-4

// BenchmarkPredictPool32 measures f32 pool-prediction throughput
// against the f64 engine on the same pool and architecture.
func BenchmarkPredictPool32(b *testing.B) {
	const poolN = 5000
	space := flow.NewSpace(flow.DefaultAlphabet, 2)
	h, w := core.EncodeShape(space)
	arch := nn.FastArch(7)
	arch.InH, arch.InW = h, w
	net := arch.Build(1)
	inet, err := nn.NewInferenceNet(net, h, w)
	if err != nil {
		b.Fatal(err)
	}

	pred64, err := nn.NewPredictor(net, nn.F64, h, w)
	if err != nil {
		b.Fatal(err)
	}
	src := core.FlowSource(space, space.RandomUnique(newRand(3), poolN), h, w)
	predict := func(p nn.Predictor) [][]float64 {
		probs, err := p.PredictStream(context.Background(), poolN, 0, src)
		if err != nil {
			b.Fatal(err)
		}
		return probs
	}

	// A pool pass is a short parallel region, so a single wall reading
	// carries scheduler noise; each engine is timed as the best of three
	// passes per iteration (identical treatment for all engines).
	minDur := func(f func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			f()
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var probs64, probs32 [][]float64
		d64 := minDur(func() { probs64 = predict(pred64) })
		d32 := minDur(func() { probs32 = predict(inet) })

		ties, mismatches := 0, 0
		for s := 0; s < poolN; s++ {
			if train.Argmax(probs32[s]) != train.Argmax(probs64[s]) {
				if tieGap(probs64[s]) <= benchTieEps {
					ties++
				} else {
					mismatches++
				}
			}
		}
		if mismatches > 0 {
			b.Fatalf("f32 and f64 argmax disagree on %d/%d flows beyond the tie tolerance", mismatches, poolN)
		}
		if ties > poolN/100 {
			b.Fatalf("%d/%d flows landed on numerical ties — engines drifted", ties, poolN)
		}

		f64Rate := poolN / d64.Seconds()
		f32Rate := poolN / d32.Seconds()
		b.ReportMetric(f32Rate, "flows/s")
		b.ReportMetric(f32Rate/f64Rate, "x-vs-f64")
		if i == b.N-1 {
			appendBenchEntry(b, "BENCH_predict32.json", benchEntry{
				Bench: "predict_pool32", Arch: "FastArch", PoolFlows: poolN,
				F64FlowsPerS: f64Rate, F32FlowsPerS: f32Rate,
				SpeedupF32VsF64: f32Rate / f64Rate, ArgmaxTies: ties,
			})
		}
	}
}

// BenchmarkServePredict32 is the serving-path variant: concurrent
// single-flow clients through the micro-batcher over an f32-precision
// model, argmax-checked against f64 scoring, compared with the same
// traffic served by an f64-precision model.
func BenchmarkServePredict32(b *testing.B) {
	const clients, perClient = 32, 16
	const total = clients * perClient
	space := flow.PaperSpace()
	h, w := core.EncodeShape(space)
	arch := nn.FastArch(7)
	arch.InH, arch.InW = h, w
	net := arch.Build(1)
	m32 := &serve.Model{Name: "bench32", Space: space, Arch: arch, Net: net, Precision: nn.F32}
	m64 := &serve.Model{Name: "bench64", Space: space, Arch: arch, Net: net, Precision: nn.F64}

	flows := space.RandomUnique(newRand(3), total)
	encs := make([][]float64, total)
	for i, f := range flows {
		encs[i] = f.Encode(space, h, w)
	}
	want64, err := m64.PredictFlows(context.Background(), flows, 1)
	if err != nil {
		b.Fatal(err)
	}

	runClients := func(batcher *serve.Batcher, check bool) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					idx := c*perClient + i
					pred, err := batcher.Submit(context.Background(), encs[idx])
					if err != nil {
						b.Error(err)
						return
					}
					if check && pred.Class != train.Argmax(want64[idx]) && tieGap(want64[idx]) > benchTieEps {
						b.Errorf("flow %d: f32 served class %d, f64 scoring says %d",
							idx, pred.Class, train.Argmax(want64[idx]))
					}
				}
			}(c)
		}
		wg.Wait()
	}

	cfg := serve.BatcherConfig{MaxBatch: 64, QueueCap: total}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b32 := serve.NewBatcher(func() (*serve.Model, error) { return m32, nil }, cfg)
		t0 := time.Now()
		runClients(b32, true)
		d32 := time.Since(t0)
		b32.Close()

		b64 := serve.NewBatcher(func() (*serve.Model, error) { return m64, nil }, cfg)
		t1 := time.Now()
		runClients(b64, false)
		d64 := time.Since(t1)
		b64.Close()

		f32Rate := total / d32.Seconds()
		b.ReportMetric(f32Rate, "flows/s")
		b.ReportMetric(d64.Seconds()/d32.Seconds(), "x-vs-f64-serving")
		if i == b.N-1 {
			appendBenchEntry(b, "BENCH_predict32.json", benchEntry{
				Bench: "serve_predict32", Arch: "FastArch", PoolFlows: total,
				ServeF32PerS: f32Rate, ServeSpeedup: d64.Seconds() / d32.Seconds(),
			})
		}
	}
	if b.Failed() {
		b.Fatal("serve-path argmax cross-check failed")
	}
}
