package nn

import (
	"fmt"

	"flowgen/internal/tensor"
)

// InferenceNet is the float32 fast path beneath the float64 training
// network: an immutable forward-only snapshot whose weights were
// converted and packed once (at model load / end of training) for the
// cache-blocked f32 kernels in internal/tensor.
//
// Differences from the f64 engine, all fixed at compile time:
//
//   - float32 everywhere: half the memory traffic per operand;
//   - channel-last (NHWC) activations: convolution lowers with Im2Row32
//     and its GEMM output lands in layout — no per-block scatter;
//   - the weight operand of every GEMM is packed into register-tile
//     panels (tensor.PackB32) exactly once;
//   - the first convolution keeps the sparse-A skip: one-hot flow
//     encodings make its position-major patch matrix ~85% zeros;
//   - pointwise activations run the polynomial f32 kernels (act32.go);
//   - zero allocation per forward pass — each prediction worker owns a
//     Scratch32 with every intermediate buffer pre-sized for the samples
//     it will score (a one-flow serving batch does not pay for a full
//     predictChunk of buffers).
//
// Per-sample numerics are independent of batch composition and worker
// sharding (every kernel fixes the per-element accumulation order), so
// f32 prediction is deterministic and bit-reproducible, like the f64
// path. Logits differ from f64 logits only by float32 rounding; the
// differential tests and the serving layer's acceptance gate quantify
// the tolerance (see DESIGN.md §3.5).
type InferenceNet struct {
	inSize  int // per-sample input elements (1×InH×InW)
	classes int
	layers  []infer32Layer
}

// infer32Layer is one compiled forward-only stage. forward consumes the
// n-sample NHWC input x and returns the layer output, either in place
// or in the layer's scratch buffer s.bufs[li].
type infer32Layer interface {
	forward(x []float32, n int, s *Scratch32, li int) []float32
	outSize() int          // per-sample output elements
	scratchNeed(n int) int // shared cols/patch scratch for n samples, in float32s
}

// Scratch32 holds one prediction worker's buffers: a per-layer output
// buffer plus the shared im2row/patch matrix, all sized for n samples.
// Scratches must not be shared between concurrent forwards.
type Scratch32 struct {
	n    int // sample capacity
	bufs [][]float32
	cols []float32
	in   []float32 // chunk input buffer (streaming fill target)
}

// NewScratch allocates a worker scratch for up to n samples per forward
// pass (1 ≤ n ≤ predictChunk). Sizing it to the samples actually scored
// keeps small serving batches from allocating full-chunk buffers.
func (t *InferenceNet) NewScratch(n int) *Scratch32 {
	if n < 1 || n > predictChunk {
		panic(fmt.Sprintf("nn: scratch for %d samples (want 1..%d)", n, predictChunk))
	}
	s := &Scratch32{
		n:    n,
		bufs: make([][]float32, len(t.layers)),
		in:   make([]float32, n*t.inSize),
	}
	cols := 0
	for i, l := range t.layers {
		s.bufs[i] = make([]float32, n*l.outSize())
		cols = max(cols, l.scratchNeed(n))
	}
	s.cols = make([]float32, cols)
	return s
}

// Forward32 runs the compiled stack over n NHWC samples held in x
// (n × InH·InW elements for the single-channel flow encodings) and
// returns the n×classes logits, valid until the scratch's next use.
// n must not exceed the scratch's sample capacity.
func (t *InferenceNet) Forward32(x []float32, n int, s *Scratch32) []float32 {
	if n < 1 || n > s.n {
		panic(fmt.Sprintf("nn: inference chunk of %d samples (scratch holds %d)", n, s.n))
	}
	if len(x) < n*t.inSize {
		panic(fmt.Sprintf("nn: inference input has %d elements, want %d", len(x), n*t.inSize))
	}
	for li, l := range t.layers {
		x = l.forward(x, n, s, li)
	}
	return x[:n*t.classes]
}

// ------------------------------------------------------------- compile

// NewInferenceNet compiles a trained network into the packed f32
// engine. The network's weights are copied (converted and packed), so
// later training steps do not affect the snapshot; recompile to pick up
// new weights. inH/inW fix the input image shape (nn networks are shape
// agnostic until the first forward; the packed locally-connected and
// dense stages need it at compile time).
func NewInferenceNet(n *Network, inH, inW int) (*InferenceNet, error) {
	if inH < 1 || inW < 1 {
		return nil, fmt.Errorf("nn: inference input %dx%d", inH, inW)
	}
	t := &InferenceNet{inSize: inH * inW}
	// Walk the stack tracking the NHWC shape: spatial (h,w,c) until
	// Flatten, flat feature count afterwards.
	h, w, c := inH, inW, 1
	spatial := true
	features := 0
	permPending := false // next Dense must permute NCHW-flat columns to NHWC-flat
	var ph, pw, pc int   // spatial shape recorded at Flatten for that permutation

	for _, layer := range n.Layers {
		switch l := layer.(type) {
		case *Conv2D:
			if !spatial {
				return nil, fmt.Errorf("nn: %s after flatten", l.Name())
			}
			if l.InC != c {
				return nil, fmt.Errorf("nn: %s expects %d channels, stack carries %d", l.Name(), l.InC, c)
			}
			t.layers = append(t.layers, newConv32(l, h, w))
			c = l.OutC
		case *MaxPool2D:
			if !spatial {
				return nil, fmt.Errorf("nn: %s after flatten", l.Name())
			}
			oh := (h-l.KH)/l.Stride + 1
			ow := (w-l.KW)/l.Stride + 1
			if oh < 1 || ow < 1 {
				return nil, fmt.Errorf("nn: %s over %dx%d input", l.Name(), h, w)
			}
			t.layers = append(t.layers, &pool32{kh: l.KH, kw: l.KW, stride: l.Stride,
				h: h, w: w, c: c, oh: oh, ow: ow})
			h, w = oh, ow
		case *LocallyConnected2D:
			if !spatial {
				return nil, fmt.Errorf("nn: %s after flatten", l.Name())
			}
			if l.InC != c || l.OH != h-l.KH+1 || l.OW != w-l.KW+1 {
				return nil, fmt.Errorf("nn: %s shape mismatch at %dx%dx%d", l.Name(), h, w, c)
			}
			t.layers = append(t.layers, newLocal32(l, h, w))
			h, w, c = l.OH, l.OW, l.OutC
		case *Flatten:
			if spatial {
				spatial = false
				features = h * w * c
				permPending = true // the next Dense reorders its columns NCHW→NHWC
				ph, pw, pc = h, w, c
			}
		case *Dense:
			in := features
			if spatial {
				// Dense straight after a spatial stage (no Flatten layer):
				// same implicit flatten.
				in = h * w * c
				ph, pw, pc = h, w, c
				permPending = true
				spatial = false
			}
			if l.In != in {
				return nil, fmt.Errorf("nn: %s expects %d inputs, stack carries %d", l.Name(), l.In, in)
			}
			d := newDense32(l, permPending, ph, pw, pc)
			t.layers = append(t.layers, d)
			permPending = false
			features = l.Out
		case *ActLayer:
			size := features
			if spatial {
				size = h * w * c
			}
			t.layers = append(t.layers, &actLayer32{act: l.Act, size: size})
		case *Dropout:
			// Identity at inference.
		default:
			return nil, fmt.Errorf("nn: layer %s has no f32 inference lowering", layer.Name())
		}
	}
	if len(t.layers) == 0 {
		return nil, fmt.Errorf("nn: empty network")
	}
	t.classes = t.layers[len(t.layers)-1].outSize()
	return t, nil
}

// scratchNeed lets layers size the shared cols/patch buffer for a
// forward pass over n samples.
func (l *conv32) scratchNeed(n int) int {
	if l.sparse {
		return 0 // the scatter path never materializes the patch matrix
	}
	return min(l.bs, n) * l.hw * l.k
}
func (l *pool32) scratchNeed(int) int     { return 0 }
func (l *local32) scratchNeed(n int) int  { return n * l.k }
func (l *dense32) scratchNeed(int) int    { return 0 }
func (l *actLayer32) scratchNeed(int) int { return 0 }

// --------------------------------------------------------------- layers

// conv32 is a stride-1 same-padding convolution over NHWC input:
// im2row + one packed GEMM per sample block, output directly in NHWC.
// One-channel input (the one-hot flow encoding feeding the first conv)
// takes the sparse fast path instead (forwardSparse).
type conv32 struct {
	inC, outC, kh, kw int
	h, w              int // input spatial dims (preserved by same padding)
	padY, padX        int
	k, hw             int
	bs                int  // samples per shared patch matrix
	sparse            bool // one-hot fast path (inC == 1)
	packed            *tensor.PackedB32
	wRows             []float32 // K×OutC row-major, the sparse path's B
	bias              []float32
}

func newConv32(l *Conv2D, h, w int) *conv32 {
	k := l.InC * l.KH * l.KW
	hw := h * w
	c := &conv32{
		inC: l.InC, outC: l.OutC, kh: l.KH, kw: l.KW, h: h, w: w,
		padY: (l.KH - 1) / 2, padX: (l.KW - 1) / 2,
		k: k, hw: hw,
		bs:     blockSamplesBudget(convBlockBudget, k, hw, predictChunk),
		sparse: l.InC == 1,
		bias:   make([]float32, l.OutC),
	}
	for i, b := range l.B.Data {
		c.bias[i] = float32(b)
	}
	// Reorder the kernel from the f64 engine's (oc, (ic,ky,kx)) layout
	// to the NHWC patch order (oc, (ky,kx,ic)), then lay it out the way
	// its path wants: packed panels for the dense tiled GEMM, or K×OutC
	// rows (one contiguous all-channels row per kernel position) for
	// the sparse scatter.
	wr := make([]float32, l.OutC*k)
	for oc := 0; oc < l.OutC; oc++ {
		for ic := 0; ic < l.InC; ic++ {
			for ky := 0; ky < l.KH; ky++ {
				for kx := 0; kx < l.KW; kx++ {
					src := ((oc*l.InC+ic)*l.KH+ky)*l.KW + kx
					dst := oc*k + (ky*l.KW+kx)*l.InC + ic
					wr[dst] = float32(l.W.Data[src])
				}
			}
		}
	}
	if c.sparse {
		c.wRows = make([]float32, k*l.OutC)
		for oc := 0; oc < l.OutC; oc++ {
			for e := 0; e < k; e++ {
				c.wRows[e*l.OutC+oc] = wr[oc*k+e]
			}
		}
	} else {
		c.packed = tensor.PackB32(wr, l.OutC, k)
	}
	return c
}

func (l *conv32) outSize() int { return l.hw * l.outC }

// forwardSparse is the one-hot fast path: with a single input channel
// the patch matrix is never materialized — each nonzero input pixel
// scatter-adds its kernel column (a contiguous OutC row of wRows) into
// the NHWC output it touches. This is the layer-level form of the
// sparse-A skip: the work is nnz·KH·KW·OutC madds instead of
// HW·KH·KW·OutC, and the ~85%-zero one-hot encodings feed the first
// conv directly. Accumulation per output element runs in ascending
// input-pixel order — fixed per sample, independent of batching.
func (l *conv32) forwardSparse(x []float32, n int, out []float32) []float32 {
	w, outC := l.w, l.outC
	for smp := 0; smp < n; smp++ {
		o := out[smp*l.hw*outC : (smp+1)*l.hw*outC]
		for r := 0; r < l.hw; r++ {
			copy(o[r*outC:(r+1)*outC], l.bias)
		}
		src := x[smp*l.hw : (smp+1)*l.hw]
		for p, v := range src {
			if v == 0 {
				continue
			}
			iy, ix := p/w, p%w
			for ky := 0; ky < l.kh; ky++ {
				y := iy - ky + l.padY
				if y < 0 || y >= l.h {
					continue
				}
				for kx := 0; kx < l.kw; kx++ {
					xx := ix - kx + l.padX
					if xx < 0 || xx >= w {
						continue
					}
					wrow := l.wRows[(ky*l.kw+kx)*outC : (ky*l.kw+kx+1)*outC]
					orow := o[(y*w+xx)*outC : (y*w+xx+1)*outC]
					tensor.Axpy32(orow, wrow, v)
				}
			}
		}
	}
	return out[:n*l.hw*outC]
}

func (l *conv32) forward(x []float32, n int, s *Scratch32, li int) []float32 {
	out := s.bufs[li]
	if l.sparse {
		return l.forwardSparse(x, n, out)
	}
	inHWC := l.hw * l.inC
	for s0 := 0; s0 < n; s0 += l.bs {
		m := l.bs
		if s0+m > n {
			m = n - s0
		}
		rows := m * l.hw
		cols := s.cols[:rows*l.k]
		for i := 0; i < m; i++ {
			tensor.Im2Row32(x[(s0+i)*inHWC:(s0+i+1)*inHWC], l.h, l.w, l.inC,
				l.kh, l.kw, l.padY, l.padX, l.h, l.w, cols[i*l.hw*l.k:])
		}
		blk := out[s0*l.hw*l.outC : (s0+m)*l.hw*l.outC]
		for r := 0; r < rows; r++ {
			copy(blk[r*l.outC:(r+1)*l.outC], l.bias)
		}
		tensor.Gemm32Packed(rows, l.outC, l.k, cols, l.k, l.packed, blk, l.outC)
	}
	return out[:n*l.hw*l.outC]
}

// pool32 is valid-padding max pooling over NHWC: each output position
// takes an elementwise max across its window positions' contiguous
// channel vectors.
type pool32 struct {
	kh, kw, stride int
	h, w, c        int
	oh, ow         int
}

func (l *pool32) outSize() int { return l.oh * l.ow * l.c }

func (l *pool32) forward(x []float32, n int, s *Scratch32, li int) []float32 {
	out := s.bufs[li]
	c := l.c
	inHWC := l.h * l.w * c
	outHWC := l.oh * l.ow * c
	for smp := 0; smp < n; smp++ {
		src := x[smp*inHWC : (smp+1)*inHWC]
		dst := out[smp*outHWC : (smp+1)*outHWC]
		for y := 0; y < l.oh; y++ {
			for xx := 0; xx < l.ow; xx++ {
				d := dst[(y*l.ow+xx)*c : (y*l.ow+xx+1)*c]
				iy0, ix0 := y*l.stride, xx*l.stride
				if l.kh == 2 && l.kw == 2 {
					// The architectures pool 2×2 exclusively; fuse the
					// four channel vectors in one pass.
					base := (iy0*l.w + ix0) * c
					r0 := src[base : base+2*c]
					base = ((iy0+1)*l.w + ix0) * c
					r1 := src[base : base+2*c]
					for i := 0; i < c; i++ {
						d[i] = max(max(r0[i], r0[c+i]), max(r1[i], r1[c+i]))
					}
					continue
				}
				copy(d, src[(iy0*l.w+ix0)*c:(iy0*l.w+ix0)*c+c])
				for ky := 0; ky < l.kh; ky++ {
					for kx := 0; kx < l.kw; kx++ {
						if ky == 0 && kx == 0 {
							continue
						}
						p := src[((iy0+ky)*l.w+ix0+kx)*c : ((iy0+ky)*l.w+ix0+kx)*c+c]
						for i, v := range p {
							if v > d[i] {
								d[i] = v
							}
						}
					}
				}
			}
		}
	}
	return out[:n*outHWC]
}

// local32 is the locally connected layer: per output position, the
// whole sample block's gathered patches run one packed GEMM against
// that position's untied weights.
type local32 struct {
	inC, outC, kh, kw int
	h, w, oh, ow      int
	k                 int
	packed            []*tensor.PackedB32 // per position
	bias              []float32           // position-major (pos, oc) — one sample's full bias image
}

func newLocal32(l *LocallyConnected2D, h, w int) *local32 {
	k := l.InC * l.KH * l.KW
	pos := l.OH * l.OW
	out := &local32{
		inC: l.InC, outC: l.OutC, kh: l.KH, kw: l.KW,
		h: h, w: w, oh: l.OH, ow: l.OW, k: k,
		packed: make([]*tensor.PackedB32, pos),
		bias:   make([]float32, pos*l.OutC),
	}
	for i, b := range l.B.Data {
		out.bias[i] = float32(b) // already (pos, oc) ordered
	}
	wr := make([]float32, l.OutC*k)
	for p := 0; p < pos; p++ {
		base := p * l.OutC * k
		for oc := 0; oc < l.OutC; oc++ {
			for ic := 0; ic < l.InC; ic++ {
				for ky := 0; ky < l.KH; ky++ {
					for kx := 0; kx < l.KW; kx++ {
						src := base + oc*k + (ic*l.KH+ky)*l.KW + kx
						wr[oc*k+(ky*l.KW+kx)*l.InC+ic] = float32(l.W.Data[src])
					}
				}
			}
		}
		out.packed[p] = tensor.PackB32(wr, l.OutC, k)
	}
	return out
}

func (l *local32) outSize() int { return l.oh * l.ow * l.outC }

func (l *local32) forward(x []float32, n int, s *Scratch32, li int) []float32 {
	out := s.bufs[li]
	inHWC := l.h * l.w * l.inC
	outHWC := l.oh * l.ow * l.outC
	for smp := 0; smp < n; smp++ {
		copy(out[smp*outHWC:(smp+1)*outHWC], l.bias)
	}
	kwc := l.kw * l.inC
	for y := 0; y < l.oh; y++ {
		for xx := 0; xx < l.ow; xx++ {
			pos := y*l.ow + xx
			patches := s.cols[:n*l.k]
			for smp := 0; smp < n; smp++ {
				src := x[smp*inHWC:]
				dst := patches[smp*l.k:]
				for ky := 0; ky < l.kh; ky++ {
					copy(dst[ky*kwc:(ky+1)*kwc], src[((y+ky)*l.w+xx)*l.inC:((y+ky)*l.w+xx)*l.inC+kwc])
				}
			}
			tensor.Gemm32Packed(n, l.outC, l.k, patches, l.k, l.packed[pos],
				out[pos*l.outC:], outHWC)
		}
	}
	return out[:n*outHWC]
}

// dense32 is a fully connected layer: one packed GEMM over the block.
// When the layer follows the (implicit or explicit) flatten of a
// spatial stage, its weight columns are permuted at compile time from
// the f64 engine's NCHW-flat order to this engine's NHWC-flat order.
type dense32 struct {
	in, out int
	packed  *tensor.PackedB32
	bias    []float32
}

func newDense32(l *Dense, perm bool, h, w, c int) *dense32 {
	d := &dense32{in: l.In, out: l.Out, bias: make([]float32, l.Out)}
	for i, b := range l.B.Data {
		d.bias[i] = float32(b)
	}
	wr := make([]float32, l.Out*l.In)
	if perm && h*w*c == l.In {
		for o := 0; o < l.Out; o++ {
			for ic := 0; ic < c; ic++ {
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						wr[o*l.In+(y*w+x)*c+ic] = float32(l.W.Data[o*l.In+(ic*h+y)*w+x])
					}
				}
			}
		}
	} else {
		for i, v := range l.W.Data {
			wr[i] = float32(v)
		}
	}
	d.packed = tensor.PackB32(wr, l.Out, l.In)
	return d
}

func (l *dense32) outSize() int { return l.out }

func (l *dense32) forward(x []float32, n int, s *Scratch32, li int) []float32 {
	out := s.bufs[li]
	for smp := 0; smp < n; smp++ {
		copy(out[smp*l.out:(smp+1)*l.out], l.bias)
	}
	tensor.Gemm32Packed(n, l.out, l.in, x, l.in, l.packed, out, l.out)
	return out[:n*l.out]
}

// actLayer32 applies the pointwise f32 activation in place.
type actLayer32 struct {
	act  Activation
	size int
}

func (l *actLayer32) outSize() int { return l.size }

func (l *actLayer32) forward(x []float32, n int, s *Scratch32, li int) []float32 {
	apply32(l.act, x[:n*l.size])
	return x
}
