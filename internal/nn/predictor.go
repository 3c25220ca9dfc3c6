package nn

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Source supplies streamed samples to InferenceNet.PredictStream: it
// writes the encodings of samples [lo, hi) into dst, H×W elements per
// sample. Flow encodings are one-hot, so float32 holds them exactly. A
// Source may run concurrently from several workers on disjoint ranges
// and must write every element of dst.
type Source func(dst []float32, lo, hi int)

// predictChunk bounds how many samples one forward pass processes during
// streamed prediction, keeping per-worker scratch memory flat regardless
// of the number of samples.
const predictChunk = 64

// PredictStream returns class probabilities for total samples without
// materializing the input: src encodes samples [lo, hi) straight into
// each worker's chunk buffer. Chunks of predictChunk samples are claimed
// atomically and sharded across workers (≤0 selects GOMAXPROCS); each
// worker owns a Scratch32 sized to its largest chunk, so peak input
// memory is workers×predictChunk samples and a one-flow call allocates
// one sample's buffers. Results are bit-identical for any worker count,
// since every kernel fixes its per-element accumulation order.
// Cancelling ctx stops the workers between chunks and discards partial
// results; a context done before the call runs no fill. A panic in a
// chunk's fill or forward pass is recovered on its worker and logged
// with its stack; the other workers stop between chunks and the call
// returns it as an error, so one bad input fails one call, never the
// process. An empty stream returns an empty result. The snapshot is
// immutable, so one InferenceNet serves many goroutines.
func (t *InferenceNet) PredictStream(ctx context.Context, total, workers int, src Source) ([][]float64, error) {
	out := make([][]float64, total)
	if total == 0 {
		return out, ctx.Err()
	}
	chunks := (total + predictChunk - 1) / predictChunk
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, chunks)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		failed   atomic.Bool
		failOnce sync.Once
		failure  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					failOnce.Do(func() { failure = fmt.Errorf("nn: prediction panic: %v", r) })
					failed.Store(true)
					slog.ErrorContext(ctx, "nn: prediction worker panic recovered",
						"panic", r, "stack", string(debug.Stack()))
				}
			}()
			s := t.NewScratch(min(total, predictChunk))
			logits := make([]float64, t.classes)
			for ctx.Err() == nil && !failed.Load() {
				ci := int(next.Add(1)) - 1
				if ci >= chunks {
					return
				}
				lo := ci * predictChunk
				hi := min(lo+predictChunk, total)
				in := s.in[:(hi-lo)*t.inSize]
				src(in, lo, hi)
				chunk := t.Forward32(in, hi-lo, s)
				for i := lo; i < hi; i++ {
					for j, v := range chunk[(i-lo)*t.classes : (i-lo+1)*t.classes] {
						logits[j] = float64(v)
					}
					out[i] = Softmax(logits)
				}
			}
		}()
	}
	wg.Wait()
	if failure != nil {
		return nil, failure
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Precision is the type of NewPredictor's and train.AccuracyPrec's
// ignored engine argument; F32 is its only value.
//
// Deprecated: inference has one engine, InferenceNet. Precision, F32
// and NewPredictor remain only because bench/labeling.go still passes
// core.Config.Precision to NewPredictor and train.AccuracyPrec; they go
// once the benchmark drops those arguments.
type Precision int

// F32 is Precision's zero value.
//
// Deprecated: see Precision.
const F32 Precision = 0

// NewPredictor is NewInferenceNet; the Precision argument is ignored.
//
// Deprecated: call NewInferenceNet. Kept for bench/labeling.go (see
// Precision).
func NewPredictor(net *Network, _ Precision, inH, inW int) (*InferenceNet, error) {
	return NewInferenceNet(net, inH, inW)
}
