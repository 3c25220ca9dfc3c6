// Float32 inference kernels. The training path stays float64 end to end
// (gradient accuracy); inference only needs argmax-stable classification,
// so the serving/pool-prediction path runs these reduced-precision,
// cache-blocked kernels instead: half the memory traffic per operand and
// real register blocking on the multiplies.
//
// Layout: the f32 engine is channel-last (NHWC). Convolution lowers to a
// position-major patch matrix (Im2Row32) multiplied against the packed
// weight operand, so both GEMM operands stream contiguously and the
// output lands in NHWC order with no scatter.
//
// Packing: the weight operand of every inference GEMM is constant per
// model snapshot, so it is packed ONCE (PackB32) into NR-wide column
// panels — panel p holds columns [p·NR, p·NR+NR) of Bᵀ interleaved so
// the microkernel reads one contiguous NR-element line per k step. The
// last panel is zero-padded; padded columns accumulate exact zeros and
// are never written back.
//
// Determinism: every kernel fixes the per-element accumulation order —
// each C element is a single ascending-k sum folded into C at the end,
// independent of tile position, panel padding, or how a batch is
// sharded across prediction workers. Worker-sharded f32 prediction is
// therefore bit-reproducible, exactly like the f64 engine.
package tensor

import "fmt"

// packNR is the scalar panel width of packed weight operands: the
// scalar microkernel accumulates one NR-wide line of C per k step. 4
// keeps the 4×4 microkernel's 16 accumulators plus operand loads
// within what the compiler holds in registers.
const packNR = 4

// packNRAVX2 is the AVX2 panel width: 16 float32 lanes = two 256-bit
// FMA accumulator vectors per A row, matching the 6×16 microkernel in
// gemm32_amd64.s.
const packNRAVX2 = 16

// PackedB32 is a weight matrix packed for Gemm32Packed: Bᵀ (k×n)
// stored as ⌈n/NR⌉ column panels of k contiguous NR-element lines. The
// panel width nr encodes the kernel the operand was packed for (4 →
// portable scalar, 16 → AVX2/FMA), fixed at pack time.
type PackedB32 struct {
	N, K int
	nr   int       // panel width: packNR (scalar) or packNRAVX2
	data []float32 // ⌈n/NR⌉ panels × k lines × NR
}

// PackB32 packs a weight matrix stored n×k row-major (the out×in layout
// of Dense and Conv2D parameters, used as B = Wᵀ in C += A·Wᵀ) into
// cache-friendly panels for the process's kernel tier. Pack once per
// model snapshot; the panels are immutable and safe for concurrent
// reads.
func PackB32(w []float32, n, k int) *PackedB32 {
	return packB32(w, n, k, activeSIMD)
}

// packB32 packs for an explicit tier, which must be one this CPU and
// build can execute — the seam tensor's tests use to pack the scalar
// layout on an AVX2 host.
func packB32(w []float32, n, k int, tier SIMD) *PackedB32 {
	if len(w) < n*k {
		panic(fmt.Sprintf("tensor: packing %dx%d from %d weights", n, k, len(w)))
	}
	nr := packNR
	if tier == SIMDAVX2 {
		nr = packNRAVX2
	}
	panels := (n + nr - 1) / nr
	p := &PackedB32{N: n, K: k, nr: nr, data: make([]float32, panels*k*nr)}
	for pi := 0; pi < panels; pi++ {
		j0 := pi * nr
		panel := p.data[pi*k*nr : (pi+1)*k*nr]
		for l := 0; l < k; l++ {
			for jr := 0; jr < nr; jr++ {
				if j := j0 + jr; j < n {
					panel[l*nr+jr] = w[j*k+l]
				}
			}
		}
	}
	return p
}

// Gemm32Packed computes C += A·Bᵀ where A is m×k with rows laid out at
// aStride (≥ k), B was packed by PackB32 from its n×k row-major form,
// and C is m×n with rows at cStride (≥ n). The kernel is chosen by the
// operand's pack-time layout: the scalar 4×4 register-tiled loop, or
// the AVX2/FMA 6×16 microkernel on 16-wide panels. Either way each C
// element is one fixed ascending-k accumulation chain — independent of
// tile position, stride, or batch sharding — so results are
// bit-reproducible per layout. The two layouts differ in rounding (FMA
// fuses the multiply-add), so scalar and vector results agree only to
// the γ_k bound, not bitwise; the fuzz gate pins both against f64.
func Gemm32Packed(m, n, k int, a []float32, aStride int, b *PackedB32, c []float32, cStride int) {
	if b.N != n || b.K != k {
		panic(fmt.Sprintf("tensor: packed operand is %dx%d, GEMM wants %dx%d", b.N, b.K, n, k))
	}
	if aStride < k || cStride < n {
		panic(fmt.Sprintf("tensor: packed gemm strides %d/%d < %d/%d", aStride, cStride, k, n))
	}
	if m > 0 && (len(a) < (m-1)*aStride+k || len(c) < (m-1)*cStride+n) {
		panic(fmt.Sprintf("tensor: packed gemm %dx%dx%d over slices of %d/%d", m, n, k, len(a), len(c)))
	}
	if b.nr == packNRAVX2 {
		gemm32PackedAVX2(m, n, k, a, aStride, b, c, cStride)
		return
	}
	panels := (n + packNR - 1) / packNR
	for pi := 0; pi < panels; pi++ {
		j0 := pi * packNR
		jn := n - j0 // live columns in this panel (≥1, ≤ packNR)
		if jn > packNR {
			jn = packNR
		}
		panel := b.data[pi*k*packNR : pi*k*packNR+k*packNR]
		i := 0
		for ; i+3 < m; i += 4 {
			a0 := a[i*aStride : i*aStride+k]
			a1 := a[(i+1)*aStride : (i+1)*aStride+k]
			a2 := a[(i+2)*aStride : (i+2)*aStride+k]
			a3 := a[(i+3)*aStride : (i+3)*aStride+k]
			var c00, c01, c02, c03 float32
			var c10, c11, c12, c13 float32
			var c20, c21, c22, c23 float32
			var c30, c31, c32, c33 float32
			for l := 0; l < k; l++ {
				bl := panel[l*packNR : l*packNR+packNR]
				b0, b1, b2, b3 := bl[0], bl[1], bl[2], bl[3]
				av := a0[l]
				c00 += av * b0
				c01 += av * b1
				c02 += av * b2
				c03 += av * b3
				av = a1[l]
				c10 += av * b0
				c11 += av * b1
				c12 += av * b2
				c13 += av * b3
				av = a2[l]
				c20 += av * b0
				c21 += av * b1
				c22 += av * b2
				c23 += av * b3
				av = a3[l]
				c30 += av * b0
				c31 += av * b1
				c32 += av * b2
				c33 += av * b3
			}
			writeTile4(c[i*cStride+j0:], cStride, jn, c00, c01, c02, c03, c10, c11, c12, c13,
				c20, c21, c22, c23, c30, c31, c32, c33)
		}
		for ; i < m; i++ {
			ai := a[i*aStride : i*aStride+k]
			var c0, c1, c2, c3 float32
			for l, av := range ai {
				bl := panel[l*packNR : l*packNR+packNR]
				c0 += av * bl[0]
				c1 += av * bl[1]
				c2 += av * bl[2]
				c3 += av * bl[3]
			}
			writeRow4(c[i*cStride+j0:], jn, c0, c1, c2, c3)
		}
	}
}

// writeTile4 folds a 4×4 accumulator tile into C, masking the packed
// panel's zero-padded columns.
func writeTile4(c []float32, cStride, jn int,
	c00, c01, c02, c03, c10, c11, c12, c13,
	c20, c21, c22, c23, c30, c31, c32, c33 float32) {
	writeRow4(c, jn, c00, c01, c02, c03)
	writeRow4(c[cStride:], jn, c10, c11, c12, c13)
	writeRow4(c[2*cStride:], jn, c20, c21, c22, c23)
	writeRow4(c[3*cStride:], jn, c30, c31, c32, c33)
}

func writeRow4(c []float32, jn int, c0, c1, c2, c3 float32) {
	switch jn {
	case 4:
		c[0] += c0
		c[1] += c1
		c[2] += c2
		c[3] += c3
	case 3:
		c[0] += c0
		c[1] += c1
		c[2] += c2
	case 2:
		c[0] += c0
		c[1] += c1
	case 1:
		c[0] += c0
	}
}

// Im2Row32 lowers one NHWC image (h×w×c, channel-last) into the
// position-major (OH·OW) × (KH·KW·C) patch matrix of a stride-1
// convolution with top/left padding padY/padX. Row q = y·OW+x holds the
// patch under output position (y,x) in (ky,kx,ic) order — the layout
// PackB32-packed convolution weights contract against — so the GEMM
// output lands directly in NHWC. Each (y,ky) pair copies runs of KW·C
// contiguous source elements. dst must hold OH·OW·KH·KW·C elements and
// is fully overwritten.
func Im2Row32(src []float32, h, w, c, kh, kw, padY, padX, oh, ow int, dst []float32) {
	kwc := kw * c
	patch := kh * kwc
	if len(src) < h*w*c || len(dst) < oh*ow*patch {
		panic("tensor: im2row buffer size mismatch")
	}
	for y := 0; y < oh; y++ {
		for ky := 0; ky < kh; ky++ {
			iy := y + ky - padY
			segOff := ky * kwc
			if iy < 0 || iy >= h {
				for x := 0; x < ow; x++ {
					seg := dst[(y*ow+x)*patch+segOff : (y*ow+x)*patch+segOff+kwc]
					for i := range seg {
						seg[i] = 0
					}
				}
				continue
			}
			srcRow := src[iy*w*c : (iy+1)*w*c]
			for x := 0; x < ow; x++ {
				seg := dst[(y*ow+x)*patch+segOff : (y*ow+x)*patch+segOff+kwc]
				ix0 := x - padX // input x under kernel column 0
				lo, hi := 0, kw
				if ix0 < 0 {
					lo = -ix0
				}
				if lo > kw {
					lo = kw
				}
				if ix0+hi > w {
					hi = w - ix0
				}
				if hi < lo {
					hi = lo
				}
				for i := 0; i < lo*c; i++ {
					seg[i] = 0
				}
				if lo < hi {
					copy(seg[lo*c:hi*c], srcRow[(ix0+lo)*c:(ix0+hi)*c])
				}
				for i := hi * c; i < kwc; i++ {
					seg[i] = 0
				}
			}
		}
	}
}
