package nn

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"flowgen/internal/obs"
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

// mustInferenceNet compiles net for h×w input.
func mustInferenceNet(t testing.TB, net *Network, h, w int) *InferenceNet {
	t.Helper()
	inet, err := NewInferenceNet(net, h, w)
	if err != nil {
		t.Fatal(err)
	}
	return inet
}

// predictAll scores every sample of x through pred.
func predictAll(t testing.TB, pred *InferenceNet, x *tensor.Tensor, workers int) [][]float64 {
	t.Helper()
	out, err := pred.PredictStream(context.Background(), x.Batch(), workers, tensorSource(x))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// probs64 is the f64 reference the engine is tested against: the
// softmax of each sample's Network.Forward logits, in the training
// network's own numerics.
func probs64(net *Network, x *tensor.Tensor) [][]float64 {
	out := logits64(net, x)
	for s, row := range out {
		out[s] = Softmax(row)
	}
	return out
}

// referenceProbs scores x one sample at a time outside the shard loop:
// the softmax of a one-sample Forward32.
func referenceProbs(inet *InferenceNet, x *tensor.Tensor) [][]float64 {
	out := make([][]float64, x.Batch())
	scratch := inet.NewScratch(1)
	src := tensorSource(x)
	for s := range out {
		src(scratch.in, s, s+1)
		out[s] = softmaxOf(inet.Forward32(scratch.in, 1, scratch))
	}
	return out
}

// TestPredictorConformance holds the f32 engine to its PredictStream
// contract on a non-square input of several chunks, the last one
// partial: results equal the single-sample reference and are
// bit-identical for any worker count; cancellation mid-stream stops the
// workers and discards partial results; a panic in one chunk's fill is
// the call's error, at one worker and at four; a pre-cancelled context
// never runs the fill; an empty stream returns an empty result.
func TestPredictorConformance(t *testing.T) {
	arch := FastArch(7)
	arch.InH, arch.InW = 8, 9
	net := arch.Build(5)
	const n = 3*predictChunk + 8
	x := randBatch(6, n, arch.InH, arch.InW)
	t.Run("f32", func(t *testing.T) {
		pred := mustInferenceNet(t, net, arch.InH, arch.InW)
		base := predictAll(t, pred, x, 1)

		t.Run("reference", func(t *testing.T) {
			for s, want := range referenceProbs(pred, x) {
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

		t.Run("panic", func(t *testing.T) {
			src := tensorSource(x)
			for _, workers := range []int{1, 4} {
				var fills atomic.Int64
				out, err := pred.PredictStream(context.Background(), n, workers, func(dst []float32, lo, hi int) {
					fills.Add(1)
					if lo == 2*predictChunk {
						panic("poisoned chunk")
					}
					src(dst, lo, hi)
				})
				if err == nil || !strings.Contains(err.Error(), "poisoned chunk") || out != nil {
					t.Fatalf("workers=%d: a panicking chunk returned %d results, err %v", workers, len(out), err)
				}
				if workers == 1 && fills.Load() != 3 {
					t.Fatalf("one worker ran %d fills, want 3: it must stop at the panicking chunk", fills.Load())
				}
				// The engine is unharmed: the next call scores as before.
				got := predictAll(t, pred, x, workers)
				for s := range base {
					for j := range base[s] {
						if got[s][j] != base[s][j] {
							t.Fatalf("workers=%d after a panic: sample %d prob %d: %v != %v",
								workers, s, j, got[s][j], base[s][j])
						}
					}
				}
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

// compileCount reads flowgen_predictor_compile_seconds_count{precision="f32"}
// from obs.Default()'s exposition.
func compileCount(t *testing.T) int {
	t.Helper()
	var buf strings.Builder
	obs.Default().WritePrometheus(&buf)
	const series = `flowgen_predictor_compile_seconds_count{precision="f32"} `
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s%s: %v", series, v, err)
			}
			return n
		}
	}
	return 0
}

// TestCompileRecordsSeries pins the series bench's nn.compile_ms reads:
// one NewInferenceNet call adds exactly one f32 compile.
func TestCompileRecordsSeries(t *testing.T) {
	arch := FastArch(7)
	net := arch.Build(1)
	before := compileCount(t)
	mustInferenceNet(t, net, arch.InH, arch.InW)
	if got := compileCount(t) - before; got != 1 {
		t.Fatalf("one compile raised the f32 compile count by %d, want 1", got)
	}
}
