// Package nn is a from-scratch convolutional neural network stack
// replacing the TensorFlow r1.3 dependency of the paper: convolution,
// max-pooling, locally connected and dense layers, dropout, the eight
// activation functions of Figure 7, and sparse softmax cross-entropy.
// Everything is float64 with explicit backpropagation, gradient-checked
// in the tests.
//
// The stack is batch-first: every layer takes and returns tensors with
// an explicit leading batch dimension (N×C×H×W for the convolutional
// stages, N×D after Flatten), convolutions and dense layers execute as
// im2col+GEMM (internal/tensor). Scoring goes through one engine: a
// trained network compiles into the packed float32 InferenceNet, which
// streams samples chunk by chunk across a worker pool. Per-sample
// numerics are independent of batch composition — every kernel fixes
// the accumulation order per output element — so batched and
// single-sample execution agree to floating-point noise and parallel
// prediction is deterministic.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"flowgen/internal/tensor"
)

// Param is a learnable parameter block with its gradient accumulator.
type Param struct {
	Data []float64
	Grad []float64
}

func newParam(n int) *Param {
	return &Param{Data: make([]float64, n), Grad: make([]float64, n)}
}

// Layer is a differentiable network stage over batched tensors (leading
// dimension = batch). Forward must retain whatever it needs for the
// following Backward call, so a Layer value serves one pipeline at a
// time; concurrent prediction runs on a compiled InferenceNet instead.
//
// Layers own the tensors they return and reuse them, so a warm training
// step allocates nothing: Forward's result is valid until the layer's
// next Forward, and Backward's until its next Backward. A caller that
// holds a result across such a call must copy it first. A layer may
// also return its input, or a view of it (Dropout at inference,
// Flatten).
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	Name() string
}

// glorot initializes w uniformly in ±sqrt(6/(fanIn+fanOut)).
func glorot(rng *rand.Rand, w []float64, fanIn, fanOut int) {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range w {
		w[i] = (rng.Float64()*2 - 1) * limit
	}
}

// buffer returns the layer-owned tensor *t reshaped to shape, growing
// its storage only when it is too small. Its elements are stale:
// callers overwrite or zero every one.
func buffer(t **tensor.Tensor, shape ...int) *tensor.Tensor {
	if *t == nil {
		*t = new(tensor.Tensor)
	}
	b := *t
	b.Shape = append(b.Shape[:0], shape...)
	if n := b.Size(); cap(b.Data) >= n {
		b.Data = b.Data[:n]
	} else {
		b.Data = make([]float64, n)
	}
	return b
}

// view points dst at data with the given shape and returns it: a
// Reshape into a tensor the caller owns.
func view(dst *tensor.Tensor, data []float64, shape ...int) *tensor.Tensor {
	dst.Shape, dst.Data = append(dst.Shape[:0], shape...), data
	if dst.Size() != len(data) {
		panic(fmt.Sprintf("nn: %d elements viewed as %v", len(data), dst.Shape))
	}
	return dst
}

// checkBatch4 validates an N×C×H×W input to layer l.
func checkBatch4(l Layer, x *tensor.Tensor, wantC int) {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: %s expects a batched N×C×H×W tensor, got shape %v", l.Name(), x.Shape))
	}
	if x.Shape[1] != wantC {
		panic(fmt.Sprintf("nn: %s expects %d input channels, got %d", l.Name(), wantC, x.Shape[1]))
	}
}

// ---------------------------------------------------------------- Conv2D

// Conv2D is a stride-1, same-padding 2-D convolution over batched
// N×C×H×W tensors, executed as im2col+GEMM per sample: the kernel tensor
// is a (OutC)×(InC·KH·KW) matrix multiplied against the lowered patch
// matrix of each image.
type Conv2D struct {
	InC, OutC, KH, KW int
	W, B              *Param
	lastIn            *tensor.Tensor
	cols              []float64 // blocked im2col patch matrix
	colsWhole         bool      // cols holds all of lastIn, lowered by Forward in one block
	gemmOut           []float64 // blocked GEMM output scratch
	gradT             []float64 // backward block's output gradient, position-major
	dcols             []float64 // backward patch-gradient scratch
	out, dx           *tensor.Tensor
}

// NewConv2D builds a convolution layer with Glorot initialization.
func NewConv2D(rng *rand.Rand, inC, outC, kh, kw int) *Conv2D {
	c := &Conv2D{InC: inC, OutC: outC, KH: kh, KW: kw,
		W: newParam(outC * inC * kh * kw), B: newParam(outC)}
	glorot(rng, c.W.Data, inC*kh*kw, outC*kh*kw)
	return c
}

func (c *Conv2D) Name() string     { return fmt.Sprintf("conv%dx%dx%d", c.OutC, c.KH, c.KW) }
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

func (c *Conv2D) scratch(k, hw int) []float64 {
	if cap(c.cols) < k*hw {
		c.cols = make([]float64, k*hw)
	}
	return c.cols[:k*hw]
}

// convBlockBudget caps the blocked patch-matrix size (in float64s, 8 MB)
// so the multi-sample GEMM blocking below never balloons memory at
// paper-arch channel counts, where a single sample's patch matrix is
// already megabytes.
const convBlockBudget = 1 << 20

// blockSamples picks how many samples share one patch matrix and GEMM.
func blockSamples(k, hw, n int) int {
	return blockSamplesBudget(convBlockBudget, k, hw, n)
}

func blockSamplesBudget(budget, k, hw, n int) int {
	bs := budget / (k * hw)
	if bs < 1 {
		bs = 1
	}
	if bs > n {
		bs = n
	}
	return bs
}

// backwardTargetCols is the backward block's target inner-loop length
// (patch-matrix columns). Backward blocking exists to lengthen the
// GEMM inner loops on small post-pooling feature maps — measured on
// this engine, hw=4 maps run ~2.4× faster at long blocks while hw≥128
// maps already have long enough loops and only lose cache locality to
// the wider matrices — so the block grows just until it reaches this
// many columns and large maps stay per-sample.
const backwardTargetCols = 128

// backwardBlockSamples sizes the backward block: enough samples to
// reach backwardTargetCols columns, within the forward scratch budget.
func backwardBlockSamples(k, hw, n int) int {
	bs := (backwardTargetCols + hw - 1) / hw
	if cap := blockSamplesBudget(convBlockBudget, k, hw, n); bs > cap {
		bs = cap
	}
	if bs > n {
		bs = n
	}
	return bs
}

// Forward computes the same-padded convolution for the whole batch.
// Samples are processed in blocks that share one im2col patch matrix and
// one GEMM: the multiply's inner loops then span block×H·W columns, so
// throughput does not collapse on small feature maps. Per-element
// accumulation order is unchanged by blocking, so results are identical
// for any batch or block size.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatch4(c, x, c.InC)
	c.lastIn = x
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	hw := h * w
	k := c.InC * c.KH * c.KW
	out := buffer(&c.out, n, c.OutC, h, w)
	padY, padX := (c.KH-1)/2, (c.KW-1)/2
	bs := blockSamples(k, hw, n)
	c.colsWhole = bs == n
	cols := c.scratch(k, bs*hw)
	if cap(c.gemmOut) < c.OutC*bs*hw {
		c.gemmOut = make([]float64, c.OutC*bs*hw)
	}
	for s0 := 0; s0 < n; s0 += bs {
		m := bs
		if s0+m > n {
			m = n - s0
		}
		for s := 0; s < m; s++ {
			tensor.Im2ColBlock(x.Data[(s0+s)*c.InC*hw:(s0+s+1)*c.InC*hw], c.InC, h, w,
				c.KH, c.KW, padY, padX, h, w, cols, bs*hw, s*hw)
		}
		tmp := c.gemmOut[:c.OutC*m*hw]
		// Seed each output row with its bias so the GEMM accumulates on
		// top of it and the scatter below is a straight copy.
		for oc := 0; oc < c.OutC; oc++ {
			row := tmp[oc*m*hw : (oc+1)*m*hw]
			b := c.B.Data[oc]
			for i := range row {
				row[i] = b
			}
		}
		// tmp (OutC × m·HW) += W · cols; note cols rows keep stride bs·hw.
		tensor.GemmStrided(c.OutC, m*hw, k, c.W.Data, cols, bs*hw, tmp)
		// Scatter the oc-major GEMM output into the N×C×H×W layout.
		for s := 0; s < m; s++ {
			outS := out.Data[(s0+s)*c.OutC*hw : (s0+s+1)*c.OutC*hw]
			for oc := 0; oc < c.OutC; oc++ {
				copy(outS[oc*hw:(oc+1)*hw], tmp[oc*m*hw+s*hw:oc*m*hw+(s+1)*hw])
			}
		}
	}
	return out
}

// Backward accumulates weight gradients and returns the input gradient.
// Samples are processed in blocks (backwardBlockSamples) that each run
// one weight-gradient and one patch-gradient GEMM whose inner loops
// span block×H·W columns. The input gradient and bias gradient keep the
// exact per-sample accumulation order, so they are bit-identical to the
// unblocked path; the weight gradient folds each block in one addition
// (instead of one per sample), which only perturbs floating-point
// rounding — the block partition fixes it.
//
// The patch matrix is lowered once per step: when Forward's single
// block covered the whole batch, each backward block reads its columns
// straight out of Forward's matrix (row stride batch×H·W), which holds
// exactly what lowering again would write. Only a batch whose patch
// matrix exceeds convBlockBudget (PaperArch's second convolution) is
// lowered again, block by block, as Forward's patch buffer by then
// holds just its last block.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor { return c.backward(grad, true) }

// backward is Backward; without wantDx it only accumulates the parameter
// gradients and returns nil, skipping each block's patch-gradient GEMM
// and col2im scatter.
func (c *Conv2D) backward(grad *tensor.Tensor, wantDx bool) *tensor.Tensor {
	x := c.lastIn
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	hw := h * w
	k := c.InC * c.KH * c.KW
	var dx *tensor.Tensor
	padY, padX := (c.KH-1)/2, (c.KW-1)/2
	bs := backwardBlockSamples(k, hw, n)
	cols, stride := c.cols, n*hw
	if !c.colsWhole {
		cols, stride = c.scratch(k, bs*hw), bs*hw
	}
	c.gradT = slices.Grow(c.gradT[:0], c.OutC*bs*hw)[:c.OutC*bs*hw]
	if cap(c.gemmOut) < c.OutC*bs*hw {
		c.gemmOut = make([]float64, c.OutC*bs*hw)
	}
	if wantDx {
		dx = buffer(&c.dx, x.Shape...)
		clear(dx.Data)
		if cap(c.dcols) < k*bs*hw {
			c.dcols = make([]float64, k*bs*hw)
		}
	}
	for s0 := 0; s0 < n; s0 += bs {
		m := bs
		if s0+m > n {
			m = n - s0
		}
		mhw := m * hw
		blockCols := cols[s0*hw:]
		if !c.colsWhole {
			blockCols = cols
		}
		gblk := c.gemmOut[:c.OutC*mhw]
		for s := 0; s < m; s++ {
			if !c.colsWhole {
				tensor.Im2ColBlock(x.Data[(s0+s)*c.InC*hw:(s0+s+1)*c.InC*hw], c.InC, h, w,
					c.KH, c.KW, padY, padX, h, w, cols, stride, s*hw)
			}
			g := grad.Data[(s0+s)*c.OutC*hw : (s0+s+1)*c.OutC*hw]
			for oc := 0; oc < c.OutC; oc++ {
				row := g[oc*hw : (oc+1)*hw]
				sum := 0.0
				for p, gv := range row {
					sum += gv
					c.gradT[(s*hw+p)*c.OutC+oc] = gv
				}
				c.B.Grad[oc] += sum
				if wantDx {
					copy(gblk[oc*mhw+s*hw:oc*mhw+(s+1)*hw], row)
				}
			}
		}
		// dW (OutC×K) += Gblk (OutC×m·HW) · colsᵀ (m·HW×K), Gblk given
		// position-major so that the vector tier takes eight output
		// channels per lane pair.
		tensor.GemmTATB(c.OutC, k, mhw, c.gradT, blockCols, stride, c.W.Grad)
		if !wantDx {
			continue
		}
		// dcols (K×m·HW) = Wᵀ (K×OutC) · Gblk (OutC×m·HW)
		dcols := c.dcols[:k*mhw]
		for i := range dcols {
			dcols[i] = 0
		}
		tensor.GemmTA(k, mhw, c.OutC, c.W.Data, gblk, dcols)
		for s := 0; s < m; s++ {
			tensor.Col2ImBlock(dcols, c.InC, h, w, c.KH, c.KW, padY, padX, h, w,
				dx.Data[(s0+s)*c.InC*hw:(s0+s+1)*c.InC*hw], mhw, s*hw)
		}
	}
	return dx
}

// ------------------------------------------------------------- MaxPool2D

// MaxPool2D is a valid-padding max pooling layer over batched tensors.
type MaxPool2D struct {
	KH, KW, Stride int
	lastIn         *tensor.Tensor
	argmax         []int // flat input index per output element
	out, dx        *tensor.Tensor
}

// NewMaxPool2D builds a pooling layer (the paper uses 2×2 kernels; the
// stride is 1 in the paper's architecture, 2 in the fast variant).
func NewMaxPool2D(kh, kw, stride int) *MaxPool2D {
	return &MaxPool2D{KH: kh, KW: kw, Stride: stride}
}

func (p *MaxPool2D) Name() string     { return fmt.Sprintf("maxpool%dx%ds%d", p.KH, p.KW, p.Stride) }
func (p *MaxPool2D) Params() []*Param { return nil }

// Forward computes the pooled batch.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: %s expects a batched N×C×H×W tensor, got shape %v", p.Name(), x.Shape))
	}
	p.lastIn = x
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-p.KH)/p.Stride + 1
	ow := (w-p.KW)/p.Stride + 1
	out := buffer(&p.out, n, ch, oh, ow)
	if cap(p.argmax) < out.Size() {
		p.argmax = make([]int, out.Size())
	}
	p.argmax = p.argmax[:out.Size()]
	oi := 0
	for s := 0; s < n; s++ {
		for c := 0; c < ch; c++ {
			plane := (s*ch + c) * h * w
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					best := math.Inf(-1)
					bestIdx := -1
					for ky := 0; ky < p.KH; ky++ {
						rowBase := plane + (y*p.Stride+ky)*w + xx*p.Stride
						for kx := 0; kx < p.KW; kx++ {
							if v := x.Data[rowBase+kx]; v > best {
								best = v
								bestIdx = rowBase + kx
							}
						}
					}
					out.Data[oi] = best
					p.argmax[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return out
}

// Backward routes gradients to the argmax positions.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := buffer(&p.dx, p.lastIn.Shape...)
	clear(dx.Data)
	for oi, ii := range p.argmax {
		dx.Data[ii] += grad.Data[oi]
	}
	return dx
}

// ----------------------------------------------------- LocallyConnected2D

// LocallyConnected2D is a convolution-like layer with untied weights per
// output position (TensorFlow's "locally connected" layer used in the
// paper's architecture). Valid padding, stride 1. Weights for one output
// position form a contiguous (OutC)×(InC·KH·KW) block, applied to a
// gathered input patch — a small per-position matrix-vector product over
// the whole batch.
type LocallyConnected2D struct {
	InC, OutC, KH, KW int
	OH, OW            int
	W, B              *Param
	lastIn            *tensor.Tensor
	patch             []float64
	out, dx           *tensor.Tensor
}

// NewLocallyConnected2D builds the layer for a fixed input size.
func NewLocallyConnected2D(rng *rand.Rand, inC, inH, inW, outC, kh, kw int) *LocallyConnected2D {
	oh, ow := inH-kh+1, inW-kw+1
	if oh < 1 || ow < 1 {
		panic("nn: locally connected kernel larger than input")
	}
	l := &LocallyConnected2D{InC: inC, OutC: outC, KH: kh, KW: kw, OH: oh, OW: ow,
		W: newParam(oh * ow * outC * inC * kh * kw), B: newParam(oh * ow * outC)}
	glorot(rng, l.W.Data, inC*kh*kw, outC)
	return l
}

func (l *LocallyConnected2D) Name() string {
	return fmt.Sprintf("local%dx%dx%d", l.OutC, l.KH, l.KW)
}
func (l *LocallyConnected2D) Params() []*Param { return []*Param{l.W, l.B} }

// gatherPatch copies the (ic,ky,kx)-ordered input patch at output
// position (y,x) of sample slice xs into l.patch.
func (l *LocallyConnected2D) gatherPatch(xs []float64, ih, iw, y, x int) []float64 {
	k := l.InC * l.KH * l.KW
	if cap(l.patch) < k {
		l.patch = make([]float64, k)
	}
	patch := l.patch[:k]
	pi := 0
	for ic := 0; ic < l.InC; ic++ {
		base := (ic*ih+y)*iw + x
		for ky := 0; ky < l.KH; ky++ {
			copy(patch[pi:pi+l.KW], xs[base+ky*iw:base+ky*iw+l.KW])
			pi += l.KW
		}
	}
	return patch
}

// Forward computes the locally connected response for the batch. The
// untied weights fix the input size, so any other H×W panics: the patch
// gather would otherwise read across row boundaries.
func (l *LocallyConnected2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatch4(l, x, l.InC)
	n, ih, iw := x.Shape[0], x.Shape[2], x.Shape[3]
	if ih != l.OH+l.KH-1 || iw != l.OW+l.KW-1 {
		panic(fmt.Sprintf("nn: %s built for %dx%d input, got %dx%d",
			l.Name(), l.OH+l.KH-1, l.OW+l.KW-1, ih, iw))
	}
	l.lastIn = x
	out := buffer(&l.out, n, l.OutC, l.OH, l.OW)
	k := l.InC * l.KH * l.KW
	for s := 0; s < n; s++ {
		xs := x.Data[s*l.InC*ih*iw : (s+1)*l.InC*ih*iw]
		os := out.Data[s*l.OutC*l.OH*l.OW : (s+1)*l.OutC*l.OH*l.OW]
		for y := 0; y < l.OH; y++ {
			for xx := 0; xx < l.OW; xx++ {
				patch := l.gatherPatch(xs, ih, iw, y, xx)
				pos := y*l.OW + xx
				wBase := pos * l.OutC * k
				for oc := 0; oc < l.OutC; oc++ {
					wrow := l.W.Data[wBase+oc*k : wBase+(oc+1)*k]
					sum := l.B.Data[pos*l.OutC+oc]
					for i, wv := range wrow {
						sum += wv * patch[i]
					}
					os[(oc*l.OH+y)*l.OW+xx] = sum
				}
			}
		}
	}
	return out
}

// Backward accumulates untied weight gradients.
func (l *LocallyConnected2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := l.lastIn
	n, ih, iw := x.Shape[0], x.Shape[2], x.Shape[3]
	dx := buffer(&l.dx, x.Shape...)
	clear(dx.Data)
	k := l.InC * l.KH * l.KW
	for s := 0; s < n; s++ {
		xs := x.Data[s*l.InC*ih*iw : (s+1)*l.InC*ih*iw]
		dxs := dx.Data[s*l.InC*ih*iw : (s+1)*l.InC*ih*iw]
		gs := grad.Data[s*l.OutC*l.OH*l.OW : (s+1)*l.OutC*l.OH*l.OW]
		for y := 0; y < l.OH; y++ {
			for xx := 0; xx < l.OW; xx++ {
				patch := l.gatherPatch(xs, ih, iw, y, xx)
				pos := y*l.OW + xx
				wBase := pos * l.OutC * k
				for oc := 0; oc < l.OutC; oc++ {
					g := gs[(oc*l.OH+y)*l.OW+xx]
					if g == 0 {
						continue
					}
					l.B.Grad[pos*l.OutC+oc] += g
					wrow := l.W.Data[wBase+oc*k : wBase+(oc+1)*k]
					growRow := l.W.Grad[wBase+oc*k : wBase+(oc+1)*k]
					pi := 0
					for ic := 0; ic < l.InC; ic++ {
						base := (ic*ih+y)*iw + xx
						for ky := 0; ky < l.KH; ky++ {
							dst := dxs[base+ky*iw : base+ky*iw+l.KW]
							for kx := range dst {
								growRow[pi] += g * patch[pi]
								dst[kx] += g * wrow[pi]
								pi++
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// ----------------------------------------------------------------- Dense

// Dense is a fully connected layer over flattened batched inputs: the
// forward pass is one GEMM Y = X·Wᵀ + b over the whole N×In batch.
type Dense struct {
	In, Out int
	W, B    *Param
	lastIn  *tensor.Tensor
	out, dx *tensor.Tensor
}

// NewDense builds a fully connected layer.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{In: in, Out: out, W: newParam(in * out), B: newParam(out)}
	glorot(rng, d.W.Data, in, out)
	return d
}

func (d *Dense) Name() string     { return fmt.Sprintf("dense%d", d.Out) }
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward computes X·Wᵀ+b over the batch (any per-sample shape whose
// element count is In).
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Batch()
	if x.SampleSize() != d.In {
		panic(fmt.Sprintf("nn: dense expects %d inputs per sample, got %v", d.In, x.Shape))
	}
	d.lastIn = x
	out := buffer(&d.out, n, d.Out)
	clear(out.Data)
	tensor.GemmTB(n, d.Out, d.In, x.Data, d.W.Data, out.Data)
	for s := 0; s < n; s++ {
		row := out.Data[s*d.Out : (s+1)*d.Out]
		for o, b := range d.B.Data {
			row[o] += b
		}
	}
	return out
}

// Backward accumulates gradients and returns dL/dx with the input's shape.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := d.lastIn
	n := x.Batch()
	// dB += column sums of G (N×Out).
	for s := 0; s < n; s++ {
		row := grad.Data[s*d.Out : (s+1)*d.Out]
		for o, g := range row {
			d.B.Grad[o] += g
		}
	}
	// dW (Out×In) += Gᵀ (Out×N) · X (N×In).
	tensor.GemmTA(d.Out, d.In, n, grad.Data, x.Data, d.W.Grad)
	// dX (N×In) = G (N×Out) · W (Out×In).
	dx := buffer(&d.dx, x.Shape...)
	clear(dx.Data)
	tensor.Gemm(n, d.In, d.Out, grad.Data, d.W.Data, dx.Data)
	return dx
}

// --------------------------------------------------------------- Dropout

// Dropout randomly zeroes activations during training with the given
// rate, scaling survivors by 1/(1-rate) (inverted dropout); inference is
// the identity. The paper uses rate 0.4. The mask spans the whole batch,
// drawn in sample order from the layer's deterministic stream.
type Dropout struct {
	Rate    float64
	rng     *rand.Rand
	mask    []float64 // empty after an inference Forward
	out, dx *tensor.Tensor
}

// NewDropout builds a dropout layer with its own deterministic stream.
func NewDropout(rng *rand.Rand, rate float64) *Dropout {
	return &Dropout{Rate: rate, rng: rand.New(rand.NewSource(rng.Int63()))}
}

func (d *Dropout) Name() string     { return fmt.Sprintf("dropout%.1f", d.Rate) }
func (d *Dropout) Params() []*Param { return nil }

// Forward applies the mask in training mode.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.Rate == 0 {
		d.mask = d.mask[:0]
		return x
	}
	out := buffer(&d.out, x.Shape...)
	d.mask = slices.Grow(d.mask[:0], len(x.Data))[:len(x.Data)]
	scale := 1 / (1 - d.Rate)
	for i, v := range x.Data {
		m, o := 0.0, 0.0
		if d.rng.Float64() >= d.Rate {
			m, o = scale, v*scale
		}
		d.mask[i], out.Data[i] = m, o
	}
	return out
}

// Backward applies the stored mask.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(d.mask) == 0 {
		return grad
	}
	dx := buffer(&d.dx, grad.Shape...)
	for i, g := range grad.Data {
		dx.Data[i] = g * d.mask[i]
	}
	return dx
}

// --------------------------------------------------------------- Flatten

// Flatten reshapes each sample to a vector, keeping the batch dimension.
// Both directions return views of their argument's data.
type Flatten struct {
	lastShape []int
	out, dx   tensor.Tensor
}

func (f *Flatten) Name() string     { return "flatten" }
func (f *Flatten) Params() []*Param { return nil }

// Forward flattens the per-sample dimensions.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.lastShape = append(f.lastShape[:0], x.Shape...)
	return view(&f.out, x.Data, x.Batch(), x.SampleSize())
}

// Backward restores the stored shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return view(&f.dx, grad.Data, f.lastShape...)
}

// -------------------------------------------------------------- ActLayer

// ActLayer applies a pointwise activation (batch-shape agnostic).
type ActLayer struct {
	Act     Activation
	deriv   []float64 // the derivative at each input of the last Forward
	out, dx *tensor.Tensor
}

// NewActLayer wraps an activation function as a layer.
func NewActLayer(a Activation) *ActLayer { return &ActLayer{Act: a} }

func (a *ActLayer) Name() string     { return a.Act.String() }
func (a *ActLayer) Params() []*Param { return nil }

// Forward applies the activation and keeps its derivative at each input
// for Backward, computed beside the output.
func (a *ActLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := buffer(&a.out, x.Shape...)
	a.deriv = slices.Grow(a.deriv[:0], len(x.Data))[:len(x.Data)]
	for i, v := range x.Data {
		out.Data[i], a.deriv[i] = a.Act.eval(v)
	}
	return out
}

// Backward multiplies by the activation derivative.
func (a *ActLayer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := buffer(&a.dx, grad.Shape...)
	for i, g := range grad.Data {
		dx.Data[i] = g * a.deriv[i]
	}
	return dx
}

// --------------------------------------------------------------- Network

// Network is a sequential stack of layers ending in class logits.
type Network struct {
	Layers []Layer
}

// Forward runs all layers over the batched input.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the loss gradient through all layers, accumulating
// parameter gradients. Nothing reads the gradient of the network's
// input, so a first Conv2D layer does not compute it.
func (n *Network) Backward(grad *tensor.Tensor) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if c, ok := n.Layers[i].(*Conv2D); ok && i == 0 {
			c.backward(grad, false)
			return
		}
		grad = n.Layers[i].Backward(grad)
	}
}

// Params collects all learnable parameters.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Data)
	}
	return total
}

// ZeroGrads clears all gradient accumulators.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// Softmax converts logits to probabilities (numerically stable).
func Softmax(logits []float64) []float64 {
	return softmaxInto(make([]float64, len(logits)), logits)
}

// softmaxInto is Softmax writing into out, which it returns.
func softmaxInto(out, logits []float64) []float64 {
	max := math.Inf(-1)
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// SparseSoftmaxCE computes the sparse softmax cross-entropy loss and the
// gradient with respect to the logits (the paper's loss function).
func SparseSoftmaxCE(logits []float64, label int) (float64, []float64) {
	grad := make([]float64, len(logits))
	return sparseSoftmaxCEInto(grad, logits, label), grad
}

// sparseSoftmaxCEInto is SparseSoftmaxCE writing the gradient into grad.
func sparseSoftmaxCEInto(grad, logits []float64, label int) float64 {
	p := softmaxInto(grad, logits)
	const eps = 1e-12
	loss := -math.Log(p[label] + eps)
	grad[label] -= 1
	return loss
}

// SparseSoftmaxCEBatch computes the mean sparse softmax cross-entropy
// loss over an N×C logits batch and the per-sample logit gradients
// (unscaled — average the accumulated parameter gradients by the batch
// size afterwards, e.g. with opt.ScaleGrads).
func SparseSoftmaxCEBatch(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	grad := tensor.New(logits.Shape...)
	return SparseSoftmaxCEBatchInto(logits, labels, grad), grad
}

// SparseSoftmaxCEBatchInto is SparseSoftmaxCEBatch writing the logit
// gradients into grad, which must have the logits' shape.
func SparseSoftmaxCEBatchInto(logits *tensor.Tensor, labels []int, grad *tensor.Tensor) float64 {
	n, c := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	if !tensor.SameShape(logits, grad) {
		panic(fmt.Sprintf("nn: %v gradient for %v logits", grad.Shape, logits.Shape))
	}
	var total float64
	for s := 0; s < n; s++ {
		total += sparseSoftmaxCEInto(grad.Data[s*c:(s+1)*c], logits.Data[s*c:(s+1)*c], labels[s])
	}
	return total / float64(n)
}

// Predict returns class probabilities for one input (C×H×W, or batched
// with a leading 1) — the single-sample reference the batched paths are
// tested against.
func (n *Network) Predict(x *tensor.Tensor) []float64 {
	if len(x.Shape) == 3 {
		x = x.Reshape(append([]int{1}, x.Shape...)...)
	}
	if x.Shape[0] != 1 {
		panic(fmt.Sprintf("nn: Predict takes one sample, got batch %d (use NewInferenceNet)", x.Shape[0]))
	}
	return Softmax(n.Forward(x, false).Data)
}
