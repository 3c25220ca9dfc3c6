package nn

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flowgen/internal/obs"
	"flowgen/internal/tensor"
)

// Predictor is the one inference surface shared by the two precision
// engines: the full-precision float64 network and the packed float32
// InferenceNet both implement it.
// Consumers (serving, pool prediction, accuracy evaluation, the
// continuous-retraining gate) program against this interface and never
// switch on Precision themselves — NewPredictor is the single place a
// precision value selects an engine.
//
// Implementations are safe for concurrent use: every prediction worker
// builds its own scratch (and, for f64, its own inference clone), so
// one Predictor can serve many goroutines.
type Predictor interface {
	// PredictStream returns class probabilities for total samples
	// without materializing the input: src encodes samples [lo, hi)
	// straight into each worker's chunk buffer. Chunks are sharded
	// across workers (≤0 selects GOMAXPROCS); peak input memory is
	// workers×predictChunk samples. Cancelling ctx stops the workers
	// between chunks and discards partial results.
	PredictStream(ctx context.Context, total, workers int, src Source) ([][]float64, error)
}

// Source supplies streamed samples to Predictor.PredictStream: it
// writes the encodings of samples [lo, hi) into dst, H×W elements per
// sample. Flow encodings are one-hot, so float32 holds them exactly for
// both engines. A Source may run concurrently from several workers on
// disjoint ranges and must write every element of dst.
type Source func(dst []float32, lo, hi int)

// predictChunk bounds how many samples one forward pass processes during
// streamed prediction, keeping per-worker scratch memory flat regardless
// of the number of samples.
const predictChunk = 64

// predictShards is the one worker loop behind both engines: chunks of
// [0, total) are claimed atomically, workers stop once ctx is done, and
// each chunk's logits (classes per sample) become float64 softmax rows.
// Every worker calls newWorker once with its chunk capacity
// min(total, predictChunk) to build its private state, and gets back the
// forward pass that turns chunk [lo, hi) into logits.
func predictShards(ctx context.Context, total, workers, classes int, newWorker func(n int) func(lo, hi int) []float64) ([][]float64, error) {
	out := make([][]float64, total)
	if total == 0 {
		return out, ctx.Err()
	}
	chunks := (total + predictChunk - 1) / predictChunk
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, chunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			forward := newWorker(min(total, predictChunk))
			for ctx.Err() == nil {
				ci := int(next.Add(1)) - 1
				if ci >= chunks {
					return
				}
				lo := ci * predictChunk
				hi := min(lo+predictChunk, total)
				logits := forward(lo, hi)
				for i := lo; i < hi; i++ {
					out[i] = Softmax(logits[(i-lo)*classes : (i-lo+1)*classes])
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// NewPredictor compiles a trained network into the engine prec selects
// — the single precision dispatch point. F32 packs the weights for the
// cache-blocked float32 kernels; F64 runs inference clones of the
// network, preserving training numerics exactly. The returned Predictor
// snapshots the weights (f32) or shares them (f64 — later training
// steps are visible); either way it is immutable API-wise and
// concurrency-safe.
func NewPredictor(net *Network, prec Precision, inH, inW int) (Predictor, error) {
	defer obs.Default().DurationHistogram("flowgen_predictor_compile_seconds",
		"Wall time to compile a trained network into a serving engine.",
		obs.Label{Key: "precision", Value: prec.String()}).ObserveSince(time.Now())
	switch prec {
	case F32:
		return NewInferenceNet(net, inH, inW)
	case F64:
		return newPredictor64(net, inH, inW)
	}
	return nil, fmt.Errorf("nn: no inference engine for precision %v", prec)
}

// predictor64 is the float64 Predictor. Each prediction worker runs its
// own InferenceClone of the source network (shared parameters, private
// activation state), so concurrent predictions never race on layer
// state. Because parameters are shared, it tracks the live network
// through training — recompilation is never needed.
type predictor64 struct {
	net      *Network
	inH, inW int
	classes  int
}

func newPredictor64(net *Network, inH, inW int) (*predictor64, error) {
	if inH < 1 || inW < 1 {
		return nil, fmt.Errorf("nn: f64 predictor input %dx%d", inH, inW)
	}
	// Discover the logit width with one dry forward on a clone — the f64
	// network is shape-agnostic until it sees input.
	probe := net.InferenceClone().Forward(tensor.New(1, 1, inH, inW), false)
	return &predictor64{net: net, inH: inH, inW: inW, classes: probe.Shape[1]}, nil
}

// PredictStream widens each chunk from a float32 staging buffer into a
// float64 chunk tensor and runs the worker's clone over it (Predictor).
func (p *predictor64) PredictStream(ctx context.Context, total, workers int, src Source) ([][]float64, error) {
	hw := p.inH * p.inW
	return predictShards(ctx, total, workers, p.classes, func(n int) func(lo, hi int) []float64 {
		clone := p.net.InferenceClone()
		in := make([]float32, n*hw)
		x := tensor.New(n, 1, p.inH, p.inW)
		return func(lo, hi int) []float64 {
			buf := in[:(hi-lo)*hw]
			src(buf, lo, hi)
			v := x.BatchView(0, hi-lo)
			for i, f := range buf {
				v.Data[i] = float64(f)
			}
			return clone.Forward(v, false).Data
		}
	})
}

// PredictStream fills each chunk straight into the worker's Scratch32
// input buffer and widens the f32 logits for the float64 softmax
// (Predictor). Scratches are sized to the largest chunk, so a one-flow
// call allocates one sample's buffers.
func (t *InferenceNet) PredictStream(ctx context.Context, total, workers int, src Source) ([][]float64, error) {
	return predictShards(ctx, total, workers, t.classes, func(n int) func(lo, hi int) []float64 {
		s := t.NewScratch(n)
		logits := make([]float64, n*t.classes)
		return func(lo, hi int) []float64 {
			in := s.in[:(hi-lo)*t.inSize]
			src(in, lo, hi)
			out := logits[:(hi-lo)*t.classes]
			for i, v := range t.Forward32(in, hi-lo, s) {
				out[i] = float64(v)
			}
			return out
		}
	})
}

var (
	_ Predictor = (*predictor64)(nil)
	_ Predictor = (*InferenceNet)(nil)
)
