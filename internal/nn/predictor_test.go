package nn

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"flowgen/internal/tensor"
)

// tensorSource streams the samples of an N×1×H×W batch, narrowed to
// float32 (exact for the float32-representable inputs the tests build).
func tensorSource(x *tensor.Tensor) Source {
	size := x.SampleSize()
	return func(dst []float32, lo, hi int) {
		for i, v := range x.Data[lo*size : hi*size] {
			dst[i] = float32(v)
		}
	}
}

// mustPredictor compiles net into the engine prec selects for h×w input.
func mustPredictor(t testing.TB, net *Network, prec Precision, h, w int) Predictor {
	t.Helper()
	pred, err := NewPredictor(net, prec, h, w)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// predictAll scores every sample of x through pred.
func predictAll(t testing.TB, pred Predictor, x *tensor.Tensor, workers int) [][]float64 {
	t.Helper()
	out, err := pred.PredictStream(context.Background(), x.Batch(), workers, tensorSource(x))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceProbs scores x one sample at a time outside the shard loop:
// Network.Predict for the f64 engine, the softmax of a one-sample
// Forward32 for the f32 engine.
func referenceProbs(net *Network, pred Predictor, x *tensor.Tensor) [][]float64 {
	out := make([][]float64, x.Batch())
	inet, f32 := pred.(*InferenceNet)
	if !f32 {
		for s := range out {
			out[s] = net.Predict(x.SampleView(s))
		}
		return out
	}
	scratch := inet.NewScratch(1)
	src := tensorSource(x)
	for s := range out {
		src(scratch.in, s, s+1)
		out[s] = softmaxOf(inet.Forward32(scratch.in, 1, scratch))
	}
	return out
}

// TestPredictorConformance holds both engines to one PredictStream
// contract on a non-square input of several chunks, the last one
// partial: results equal the engine's single-sample reference and are
// bit-identical for any worker count; cancellation mid-stream stops the
// workers and discards partial results; a pre-cancelled context never
// runs the fill; an empty stream returns an empty result.
func TestPredictorConformance(t *testing.T) {
	arch := FastArch(7)
	arch.InH, arch.InW = 8, 9
	net := arch.Build(5)
	const n = 3*predictChunk + 8
	x := randBatch(6, n, arch.InH, arch.InW)
	for _, prec := range []Precision{F64, F32} {
		t.Run(prec.String(), func(t *testing.T) {
			pred := mustPredictor(t, net, prec, arch.InH, arch.InW)
			base := predictAll(t, pred, x, 1)

			t.Run("reference", func(t *testing.T) {
				for s, want := range referenceProbs(net, pred, x) {
					for j := range want {
						if base[s][j] != want[j] {
							t.Fatalf("sample %d prob %d: PredictStream %v != reference %v", s, j, base[s][j], want[j])
						}
					}
				}
			})

			t.Run("workers", func(t *testing.T) {
				for _, workers := range []int{2, 3, 7, 16} {
					got := predictAll(t, pred, x, workers)
					for s := range base {
						for j := range base[s] {
							if got[s][j] != base[s][j] {
								t.Fatalf("workers=%d sample %d prob %d: %v != %v",
									workers, s, j, got[s][j], base[s][j])
							}
						}
					}
				}
			})

			t.Run("cancel", func(t *testing.T) {
				const total = 40 * predictChunk
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var fills atomic.Int64
				out, err := pred.PredictStream(ctx, total, 2, func(dst []float32, lo, hi int) {
					if fills.Add(1) == 1 {
						cancel()
					}
					clear(dst)
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("want context.Canceled, got %v", err)
				}
				if out != nil {
					t.Fatal("cancelled prediction must discard partial results")
				}
				if n := fills.Load(); n >= 40 {
					t.Fatalf("cancellation did not stop the workers: %d/40 chunks still ran", n)
				}
			})

			t.Run("precancelled", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				var fills atomic.Int64
				_, err := pred.PredictStream(ctx, 500, 2, func(dst []float32, lo, hi int) {
					fills.Add(1)
					clear(dst)
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("want context.Canceled, got %v", err)
				}
				if n := fills.Load(); n != 0 {
					t.Fatalf("pre-cancelled context still ran %d fills", n)
				}
			})

			t.Run("empty", func(t *testing.T) {
				out, err := pred.PredictStream(context.Background(), 0, 0, func([]float32, int, int) {
					t.Error("fill ran for an empty stream")
				})
				if err != nil || len(out) != 0 {
					t.Fatalf("empty stream: %d results, err %v", len(out), err)
				}
			})
		})
	}
}
