package nn

import (
	"context"
	"fmt"
	"sync"
	"time"

	"flowgen/internal/obs"
	"flowgen/internal/tensor"
)

// Predictor is the one inference surface shared by the two precision
// engines: the full-precision float64 clone pool and the packed float32
// InferenceNet both implement it.
// Consumers (serving, pool prediction, accuracy evaluation, the
// continuous-retraining gate) program against this interface and never
// switch on Precision themselves — NewPredictor is the single place a
// precision value selects an engine.
//
// Implementations are safe for concurrent use: every call owns its
// scratch (the engines allocate per-worker scratches; the f64 path
// checks a clone out of a pool), so one Predictor can serve many
// goroutines.
type Predictor interface {
	// PredictBatchCtx returns class probabilities for every sample of a
	// batched N×1×H×W float64 tensor, sharding chunks across workers
	// (≤0 selects GOMAXPROCS). Cancellation discards partial results.
	PredictBatchCtx(ctx context.Context, x *tensor.Tensor, workers int) ([][]float64, error)
	// PredictStream classifies total samples without materializing the
	// input: the Source encodes samples [lo, hi) straight into each
	// worker's chunk buffer in whichever representation the engine
	// consumes. Peak input memory is workers×predictChunk samples.
	PredictStream(ctx context.Context, total, workers int, src Source) ([][]float64, error)
	// Classes returns the logit width.
	Classes() int
	// Precision names the engine tier.
	Precision() Precision
	// SIMD names the kernel tier the engine was compiled for ("none"
	// for the f64 path, the frozen pack-time tier for f32).
	SIMD() string
}

// Source supplies streamed samples to Predictor.PredictStream in up to
// two representations. Fill64 is the canonical form (one-hot float64,
// perSample elements per sample); Fill32 is an optional fast path that
// skips the float64 round trip. A missing fill is derived from the
// other, so a Source with only one of them works against both engines.
// Fills may run concurrently from several workers on disjoint ranges
// and must write every element of dst.
type Source struct {
	Fill64 func(dst []float64, lo, hi int)
	Fill32 func(dst []float32, lo, hi int)
}

// fill64 returns the float64 fill, deriving it by widening Fill32 when
// only the float32 form was supplied.
func (s Source) fill64(perSample int) func(dst []float64, lo, hi int) {
	if s.Fill64 != nil {
		return s.Fill64
	}
	if s.Fill32 == nil {
		panic("nn: Source has neither Fill64 nor Fill32")
	}
	pool := newFillScratch[float32](perSample)
	return func(dst []float64, lo, hi int) {
		buf := pool.get(hi - lo)
		s.Fill32(buf, lo, hi)
		for i, v := range buf {
			dst[i] = float64(v)
		}
		pool.put(buf)
	}
}

// fill32 returns the float32 fill, deriving it by narrowing Fill64.
func (s Source) fill32(perSample int) func(dst []float32, lo, hi int) {
	if s.Fill32 != nil {
		return s.Fill32
	}
	if s.Fill64 == nil {
		panic("nn: Source has neither Fill32 nor Fill64")
	}
	pool := newFillScratch[float64](perSample)
	return func(dst []float32, lo, hi int) {
		buf := pool.get(hi - lo)
		s.Fill64(buf, lo, hi)
		for i, v := range buf {
			dst[i] = float32(v)
		}
		pool.put(buf)
	}
}

// fillScratch pools per-call conversion buffers so derived fills stay
// allocation-free in steady state even when several workers stream
// concurrently.
type fillScratch[T float32 | float64] struct {
	pool      sync.Pool
	perSample int
}

func newFillScratch[T float32 | float64](perSample int) *fillScratch[T] {
	s := &fillScratch[T]{perSample: perSample}
	s.pool.New = func() any {
		b := make([]T, predictChunk*perSample)
		return &b
	}
	return s
}

func (s *fillScratch[T]) get(n int) []T {
	return (*s.pool.Get().(*[]T))[:n*s.perSample]
}

func (s *fillScratch[T]) put(b []T) {
	b = b[:cap(b)]
	s.pool.Put(&b)
}

// NewPredictor compiles a trained network into the engine prec selects
// — the single precision dispatch point. F32 packs the weights for the
// cache-blocked float32 kernels, F64 wraps the network in a clone pool
// that preserves training numerics exactly. The returned Predictor
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
		return newClonePool(net, inH, inW)
	}
	return nil, fmt.Errorf("nn: no inference engine for precision %v", prec)
}

// clonePool is the float64 Predictor: a pool of InferenceClones of the
// source network (shared parameters, private activation state), one
// checked out per call so concurrent predictions never race on layer
// state. Because parameters are shared, the pool tracks the live
// network through training — recompilation is never needed.
type clonePool struct {
	net      *Network
	inH, inW int
	classes  int
	clones   sync.Pool
}

func newClonePool(net *Network, inH, inW int) (*clonePool, error) {
	if inH < 1 || inW < 1 {
		return nil, fmt.Errorf("nn: f64 predictor input %dx%d", inH, inW)
	}
	p := &clonePool{net: net, inH: inH, inW: inW}
	p.clones.New = func() any { return net.InferenceClone() }
	// Discover the logit width with one dry forward on a clone — the f64
	// network is shape-agnostic until it sees input.
	probe := net.InferenceClone().Forward(tensor.New(1, 1, inH, inW), false)
	p.classes = probe.Shape[1]
	return p, nil
}

func (p *clonePool) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, workers int) ([][]float64, error) {
	c := p.clones.Get().(*Network)
	defer p.clones.Put(c)
	return c.PredictBatchCtx(ctx, x, workers)
}

func (p *clonePool) PredictStream(ctx context.Context, total, workers int, src Source) ([][]float64, error) {
	c := p.clones.Get().(*Network)
	defer p.clones.Put(c)
	return c.PredictStream(ctx, total, []int{1, p.inH, p.inW}, workers,
		src.fill64(p.inH*p.inW))
}

func (p *clonePool) Classes() int         { return p.classes }
func (p *clonePool) Precision() Precision { return F64 }
func (p *clonePool) SIMD() string         { return tensor.SIMDNone.String() }

// --- Predictor conformance for the f32 engine ---------------------------

// Classes returns the logit width (Predictor).
func (t *InferenceNet) Classes() int { return t.classes }

// Precision reports F32 (Predictor).
func (t *InferenceNet) Precision() Precision { return F32 }

// PredictStream adapts the float32 streamed path to the Predictor
// Source contract: samples arrive through the source's float32 fill
// (derived from Fill64 when absent).
func (t *InferenceNet) PredictStream(ctx context.Context, total, workers int, src Source) ([][]float64, error) {
	return t.predictShards32(ctx, total, workers, src.fill32(t.inSize))
}

var (
	_ Predictor = (*clonePool)(nil)
	_ Predictor = (*InferenceNet)(nil)
)
