// Int8 quantized inference kernels. The f32 engine (gemm32.go) sits at
// the pure-Go scalar flop ceiling: one float multiply-add per weight per
// sample, and no SIMD without assembly. This file gets below that
// ceiling by doing less arithmetic per flow, not faster floats — the
// classic low-precision inference recipe adapted to what a 64-bit ALU
// can do portably:
//
//   - Weights quantize per output channel to 7-bit symmetric int8
//     (q ∈ [-63, 63], scale = maxabs/63, QuantizeSymmetric8); flow
//     activations quantize per sample the same way. 7 bits — not 8 —
//     is what makes the SWAR trick below exact.
//
//   - Quantized operands are stored BIASED (u = q + 64 ∈ [1, 127]) and
//     packed four-per-uint64 into 16-bit lanes. A single 64-bit integer
//     multiply of an A word against a lane-REVERSED B word then computes
//     a 4-term dot product in its top lane:
//
//     (Σᵢ aᵢ·2¹⁶ⁱ)·(Σⱼ b₃₋ⱼ·2¹⁶ʲ) → lane 3 = Σᵢ aᵢ·bᵢ
//
//     exactly, because every lane sum stays under 2¹⁶ (4·127² = 64516),
//     so nothing carries between lanes. One IMUL + shift + add replaces
//     four multiply-adds.
//
//   - The bias introduced by the offset encoding is removed with the
//     standard zero-point correction: Σ(uₐ−64)(u_b−64) = U − 64·ΣUₐ −
//     64·ΣU_b + 4096·k, with the row/column byte sums computed once at
//     quantization/pack time.
//
//   - The epilogue dequantizes with the two scales and fuses the bias
//     add, writing float32 output directly (C = sₐ·s_b·S + bias).
//
// Determinism: the accumulation is exact integer arithmetic in a fixed
// ascending-k order, so results are bit-reproducible for any tile
// position, stride, or worker sharding — the same discipline as the f32
// kernels, with an even stronger guarantee (no rounding until the one
// dequantizing multiply per output element).
//
// No inference engine calls these kernels any more: f32 is the only
// fast tier (DESIGN.md §3.5). They stay, with their unit tests and fuzz
// corpus, until they are deleted on their own.
package tensor

import (
	"fmt"
	"math"
)

// QMax8 is the symmetric quantization range: values map to q ∈
// [-QMax8, QMax8]. 63 (7 bits) rather than 127 keeps every 16-bit SWAR
// lane sum below 2^16 (4·127·127 = 64516), which is what makes the
// packed multiply exact.
const QMax8 = 63

// quantBias is the offset added to quantized values so packed lanes are
// non-negative: u = q + quantBias ∈ [1, 127].
const quantBias = 64

// maxQuantK bounds the contraction depth of the int8 kernels so the
// int32 accumulator cannot overflow: each 4-wide group contributes at
// most 4·127·127 = 64516, so k ≤ maxQuantK keeps U < 2^31.
const maxQuantK = 130000

// MaxQuantK reports the deepest contraction the int8 kernels accept
// (the int32 accumulator bound), so engine compilers can reject a
// too-deep layer with an error instead of a pack-time panic.
func MaxQuantK() int { return maxQuantK }

// QuantizeSymmetric8 quantizes an n×k row-major weight matrix (the
// out×in layout of Dense/Conv2D parameters) per output channel: row j
// gets scale[j] = maxabs(row j)/QMax8 and q = round(w/scale) clamped to
// [-QMax8, QMax8]. An all-zero row gets scale 0 and all-zero codes.
// Quantization is exact on {0, ±maxabs} and loses at most scale/2 per
// weight elsewhere.
func QuantizeSymmetric8(w []float32, n, k int) (q []int8, scales []float32) {
	if len(w) < n*k {
		panic(fmt.Sprintf("tensor: quantizing %dx%d from %d weights", n, k, len(w)))
	}
	q = make([]int8, n*k)
	scales = make([]float32, n)
	for j := 0; j < n; j++ {
		row := w[j*k : (j+1)*k]
		var maxAbs float32
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs == 0 {
			continue // scale 0, codes 0
		}
		scales[j] = maxAbs / QMax8
		inv := QMax8 / maxAbs
		for l, v := range row {
			q[j*k+l] = clampQ8(v * inv)
		}
	}
	return q, scales
}

// clampQ8 rounds half away from zero and clamps to the 7-bit range.
func clampQ8(v float32) int8 {
	var r int32
	if v >= 0 {
		r = int32(v + 0.5)
	} else {
		r = int32(v - 0.5)
	}
	if r > QMax8 {
		r = QMax8
	}
	if r < -QMax8 {
		r = -QMax8
	}
	return int8(r)
}

// QuantizeU8 quantizes src symmetrically to the biased 7-bit codes the
// int8 GEMM consumes (u = q + 64) and returns the scale (maxabs/QMax8;
// 0 for an all-zero input, with dst filled by the zero code 64). One
// call per sample: the scale depends only on that sample's values, so
// quantized prediction is independent of batch composition and worker
// sharding. dst must hold len(src) bytes.
func QuantizeU8(src []float32, dst []byte) float32 {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("tensor: quantizing %d floats into %d bytes", len(src), len(dst)))
	}
	var maxAbs float32
	for _, v := range src {
		if a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31)); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range src {
			dst[i] = quantBias
		}
		return 0
	}
	inv := QMax8 / maxAbs
	for i, v := range src {
		// clampQ8 inlined with the half-away-from-zero offset taken from
		// the sign bit: activation signs are data-dependent, so a
		// compare-branch here mispredicts ~half the time.
		half := math.Float32frombits(math.Float32bits(v)&(1<<31) | 0x3f000000)
		r := int32(v*inv + half)
		if r > QMax8 {
			r = QMax8
		} else if r < -QMax8 {
			r = -QMax8
		}
		dst[i] = byte(r + quantBias)
	}
	return maxAbs / QMax8
}

// packN8AVX2 is the AVX2 int8 panel width: 8 columns × 4 k-steps per
// 32-byte group, matching the 4×8 VPMADDUBSW microkernel in
// gemm8_amd64.s.
const packN8AVX2 = 8

// PackedB8 is a weight matrix quantized (per output channel) and packed
// for Gemm8Packed: ⌈n/4⌉ column panels, each holding ⌈k/4⌉ groups of 4
// lane-reversed uint64 words (one per panel column). When packed for
// AVX2 it additionally carries the byte-interleaved panel layout the
// VPMADDUBSW microkernel streams (bdata) plus the per-column signed
// code sums its zero-point correction needs (qsum). Pack once per
// model snapshot; immutable and safe for concurrent reads.
type PackedB8 struct {
	N, K  int
	kw    int       // uint64 words per column = ⌈k/4⌉
	data  []uint64  // ⌈n/4⌉ panels × kw groups × 4 words
	Scale []float32 // per-column dequantization scale
	corr  []int32   // per-column zero-point correction: 4096·4kw − 64·ΣU_b

	simd  SIMD
	bdata []byte  // AVX2: ⌈n/8⌉ panels × kw groups × 32 bytes (signed codes)
	qsum  []int32 // AVX2: per-column Σ q_b (signed), for S = ACC − 64·Σq_b
}

// SIMD reports the dispatch level the operand was packed for — the
// kernel every Gemm8Packed call on it will run.
func (p *PackedB8) SIMD() SIMD { return p.simd }

// PackB8 quantizes a weight matrix stored n×k row-major (used as
// B = Wᵀ in C = A·Wᵀ) per output channel and packs it for the active
// dispatch level. Padding (k to a multiple of 4, n to a multiple of the
// panel width) uses the biased zero code in the SWAR layout — which the
// per-column correction term accounts for exactly — and the signed zero
// code in the AVX2 layout, where it contributes exact zeros.
func PackB8(w []float32, n, k int) *PackedB8 {
	return PackB8SIMD(w, n, k, ActiveSIMD())
}

// PackB8SIMD packs for an explicit dispatch level (clamped to what this
// CPU and build can execute). The SWAR layout is always built — it is
// the portable fallback and the differential oracle — and the AVX2
// layout rides alongside when requested; integer accumulation is exact
// in both, so the two kernels are bit-identical on the same operand.
func PackB8SIMD(w []float32, n, k int, simd SIMD) *PackedB8 {
	if k > maxQuantK {
		panic(fmt.Sprintf("tensor: int8 contraction depth %d exceeds the int32 accumulator bound %d", k, maxQuantK))
	}
	if simd > SupportedSIMD() {
		simd = SupportedSIMD()
	}
	q, scales := QuantizeSymmetric8(w, n, k)
	kw := (k + 3) / 4
	panels := (n + 3) / 4
	p := &PackedB8{N: n, K: k, kw: kw, Scale: scales, simd: simd,
		data: make([]uint64, panels*kw*4), corr: make([]int32, n)}
	for j := 0; j < n; j++ {
		sum := int32(0)
		for g := 0; g < kw; g++ {
			// Lane-reversed word: lane (3-r) holds element 4g+r, so the
			// full multiply's top lane pairs aᵢ with bᵢ.
			var word uint64
			for r := 0; r < 4; r++ {
				u := uint64(quantBias) // k padding: the biased zero code
				if l := 4*g + r; l < k {
					u = uint64(int32(q[j*k+l]) + quantBias)
				}
				sum += int32(u)
				word |= u << (16 * (3 - r))
			}
			p.data[(j/4)*kw*4+g*4+j%4] = word
		}
		p.corr[j] = 4096*int32(4*kw) - quantBias*sum
	}
	// n padding: columns beyond N keep all-zero words; their lanes
	// contribute nothing and the kernel never writes them back.
	if simd == SIMDAVX2 {
		// Byte-interleaved AVX2 panels: group g of panel pi holds the 4
		// signed codes of k-steps 4g..4g+3 for each of the panel's 8
		// columns, so one 32-byte load feeds a whole VPMADDUBSW. k and n
		// padding store signed zero, which multiplies to exact zero —
		// no correction needed beyond the per-column Σ q_b.
		panels8 := (n + packN8AVX2 - 1) / packN8AVX2
		p.bdata = make([]byte, panels8*kw*32)
		p.qsum = make([]int32, n)
		for j := 0; j < n; j++ {
			qs := int32(0)
			for l := 0; l < k; l++ {
				qs += int32(q[j*k+l])
			}
			p.qsum[j] = qs
			base := (j / packN8AVX2) * kw * 32
			off := (j % packN8AVX2) * 4
			for g := 0; g < kw; g++ {
				for r := 0; r < 4; r++ {
					var qv int8
					if l := 4*g + r; l < k {
						qv = q[j*k+l]
					}
					p.bdata[base+g*32+off+r] = byte(qv)
				}
			}
		}
	}
	return p
}

// PackRowU8 packs k biased codes (from QuantizeU8 or Im2RowU8) into
// ⌈k/4⌉ natural-order uint64 words, padding the final group with the
// biased zero code, and returns the byte sum over the padded row — the
// per-row half of the zero-point correction. words must hold ⌈k/4⌉
// elements.
func PackRowU8(u []byte, words []uint64) int32 {
	k := len(u)
	kw := (k + 3) / 4
	if len(words) < kw {
		panic(fmt.Sprintf("tensor: packing %d codes into %d words", k, len(words)))
	}
	sum := int32(0)
	g := 0
	for ; 4*g+3 < k; g++ {
		u0, u1, u2, u3 := u[4*g], u[4*g+1], u[4*g+2], u[4*g+3]
		sum += int32(u0) + int32(u1) + int32(u2) + int32(u3)
		words[g] = uint64(u0) | uint64(u1)<<16 | uint64(u2)<<32 | uint64(u3)<<48
	}
	if g < kw {
		var word uint64
		for r := 0; r < 4; r++ {
			u8 := uint64(quantBias)
			if l := 4*g + r; l < k {
				u8 = uint64(u[l])
			}
			sum += int32(u8)
			word |= u8 << (16 * r)
		}
		words[g] = word
	}
	return sum
}

// Im2RowU8 is Im2Row32 in the biased-int8 domain: it lowers one NHWC
// image of quantized codes into the position-major patch matrix of a
// stride-1 convolution, writing the biased zero code (64) where the
// patch hangs over the padding border. Layout and ordering are
// identical to Im2Row32, so a PackB8-packed convolution weight
// contracts against it the same way.
func Im2RowU8(src []byte, h, w, c, kh, kw, padY, padX, oh, ow int, dst []byte) {
	kwc := kw * c
	patch := kh * kwc
	if len(src) < h*w*c || len(dst) < oh*ow*patch {
		panic("tensor: im2row8 buffer size mismatch")
	}
	for y := 0; y < oh; y++ {
		for ky := 0; ky < kh; ky++ {
			iy := y + ky - padY
			segOff := ky * kwc
			if iy < 0 || iy >= h {
				for x := 0; x < ow; x++ {
					seg := dst[(y*ow+x)*patch+segOff : (y*ow+x)*patch+segOff+kwc]
					for i := range seg {
						seg[i] = quantBias
					}
				}
				continue
			}
			srcRow := src[iy*w*c : (iy+1)*w*c]
			for x := 0; x < ow; x++ {
				seg := dst[(y*ow+x)*patch+segOff : (y*ow+x)*patch+segOff+kwc]
				ix0 := x - padX
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
					seg[i] = quantBias
				}
				if lo < hi {
					copy(seg[lo*c:hi*c], srcRow[(ix0+lo)*c:(ix0+hi)*c])
				}
				for i := hi * c; i < kwc; i++ {
					seg[i] = quantBias
				}
			}
		}
	}
}

// padWordU8 is a packed group of four biased zero codes — what padding
// contributes to a patch row in the word domain.
const padWordU8 = uint64(quantBias) | uint64(quantBias)<<16 | uint64(quantBias)<<32 | uint64(quantBias)<<48

// QuantizePackU8 is QuantizeU8 fused with the word packing: the codes
// go straight into natural-order packed words (4 per uint64, like
// PackRowU8) without materializing the byte image, and pre receives the
// running byte sums at word granularity (pre[g] = sum of the first 4g
// codes) for the zero-point corrections. len(src) must be a multiple of
// 4; words needs len(src)/4 elements and pre one more. Returns the
// per-sample scale (0 for an all-zero input, packed as zero codes).
func QuantizePackU8(src []float32, words []uint64, pre []int32) float32 {
	n := len(src)
	if n%4 != 0 {
		panic("tensor: quantize-pack needs a multiple of 4 elements")
	}
	nw := n / 4
	if len(words) < nw || len(pre) < nw+1 {
		panic(fmt.Sprintf("tensor: quantize-packing %d floats into %d words / %d sums", n, len(words), len(pre)))
	}
	var maxAbs float32
	for _, v := range src {
		if a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31)); a > maxAbs {
			maxAbs = a
		}
	}
	pre[0] = 0
	if maxAbs == 0 {
		for g := 0; g < nw; g++ {
			words[g] = padWordU8
			pre[g+1] = pre[g] + 4*quantBias
		}
		return 0
	}
	inv := QMax8 / maxAbs
	for g := 0; g < nw; g++ {
		var word uint64
		sum := int32(0)
		for r := 0; r < 4; r++ {
			v := src[4*g+r]
			half := math.Float32frombits(math.Float32bits(v)&(1<<31) | 0x3f000000)
			q := int32(v*inv + half)
			if q > QMax8 {
				q = QMax8
			} else if q < -QMax8 {
				q = -QMax8
			}
			u := q + quantBias
			sum += u
			word |= uint64(u) << (16 * r)
		}
		words[g] = word
		pre[g+1] = pre[g] + sum
	}
	return maxAbs / QMax8
}

// Im2RowGatherU8 assembles the packed patch rows of a stride-1
// convolution from a word-packed image (QuantizePackU8 output): each
// patch row is a run of word copies plus padding words, and its byte
// sum is read off the word-granular prefix table. Requires c%4 == 0 so
// every pixel boundary is word-aligned. dst receives oh·ow rows of
// kh·kw·c/4 words; sums the oh·ow row byte sums. Output is identical
// to the byte-domain Im2RowU8 + PackRowU8 pair.
func Im2RowGatherU8(imgWords []uint64, pre []int32, h, w, c, kh, kw, padY, padX, oh, ow int, dst []uint64, sums []int32) {
	if c%4 != 0 {
		panic("tensor: im2row gather needs channel count divisible by 4")
	}
	cw := c / 4
	hwcw := h * w * cw
	rowWords := kw * cw
	patchWords := kh * rowWords
	if len(imgWords) < hwcw || len(pre) < hwcw+1 ||
		len(dst) < oh*ow*patchWords || len(sums) < oh*ow {
		panic("tensor: im2row gather buffer size mismatch")
	}
	for i := range sums[:oh*ow] {
		sums[i] = 0
	}
	for y := 0; y < oh; y++ {
		for ky := 0; ky < kh; ky++ {
			iy := y + ky - padY
			segOff := ky * rowWords
			if iy < 0 || iy >= h {
				for x := 0; x < ow; x++ {
					seg := dst[(y*ow+x)*patchWords+segOff : (y*ow+x)*patchWords+segOff+rowWords]
					for i := range seg {
						seg[i] = padWordU8
					}
					sums[y*ow+x] += quantBias * int32(4*rowWords)
				}
				continue
			}
			srcRow := imgWords[iy*w*cw : (iy+1)*w*cw]
			for x := 0; x < ow; x++ {
				seg := dst[(y*ow+x)*patchWords+segOff : (y*ow+x)*patchWords+segOff+rowWords]
				ix0 := x - padX
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
				for i := 0; i < lo*cw; i++ {
					seg[i] = padWordU8
				}
				if lo < hi {
					copy(seg[lo*cw:hi*cw], srcRow[(ix0+lo)*cw:(ix0+hi)*cw])
					sums[y*ow+x] += pre[(iy*w+ix0+hi)*cw] - pre[(iy*w+ix0+lo)*cw]
				}
				for i := hi * cw; i < rowWords; i++ {
					seg[i] = padWordU8
				}
				sums[y*ow+x] += quantBias * int32((kw-(hi-lo))*c)
			}
		}
	}
}

// Im2RowPackU8 is the byte-image entry point for the word-domain
// lowering: pack the h×w×c biased codes once (one pass instead of the
// kh·kw touches of Im2RowU8 + PackRowU8), then gather. imgWords
// (≥ h·w·c/4) and pre (≥ h·w·c/4+1) are caller scratch; words receives
// oh·ow packed rows of kh·kw·c/4 words each and sums the oh·ow row byte
// sums. Requires c%4 == 0.
func Im2RowPackU8(img []byte, h, w, c, kh, kw, padY, padX, oh, ow int, imgWords []uint64, pre []int32, words []uint64, sums []int32) {
	if c%4 != 0 {
		panic("tensor: im2rowpack8 needs channel count divisible by 4")
	}
	hwc := h * w * c
	if len(img) < hwc || len(imgWords) < hwc/4 || len(pre) < hwc/4+1 {
		panic("tensor: im2rowpack8 buffer size mismatch")
	}
	pre[0] = 0
	for g := 0; g < hwc/4; g++ {
		u0, u1, u2, u3 := img[4*g], img[4*g+1], img[4*g+2], img[4*g+3]
		imgWords[g] = uint64(u0) | uint64(u1)<<16 | uint64(u2)<<32 | uint64(u3)<<48
		pre[g+1] = pre[g] + int32(u0) + int32(u1) + int32(u2) + int32(u3)
	}
	Im2RowGatherU8(imgWords, pre, h, w, c, kh, kw, padY, padX, oh, ow, words, sums)
}

// Gemm8Packed computes the quantized product and dequantizes in one
// pass: for each row i and live column j,
//
//	C[i·cStride+j] = aScale[i]·b.Scale[j]·S(i,j) + bias[j]
//
// where S(i,j) = Σ_l qa[i,l]·qb[j,l] is the EXACT int32 dot product of
// the quantized operands. A holds m packed rows of aStride uint64 words
// each (≥ b words per row, from PackRowU8/Im2RowU8+PackRowU8), aSum the
// per-row byte sums, aScale the per-row dequantization scales. C rows
// are OVERWRITTEN (the bias add is the fused epilogue — no pre-fill
// needed), at cStride ≥ n. bias may be nil for zero bias. Padded panel
// columns are never written.
//
// The inner loop is the SWAR multiply: per 4-wide k group and column,
// one 64-bit multiply + shift extracts the 4-term dot product of the
// biased codes; the zero-point correction then recovers S exactly.
func Gemm8Packed(m, n int, a []uint64, aStride int, aSum []int32, aScale []float32,
	b *PackedB8, c []float32, cStride int, bias []float32) {
	kw := b.kw
	if aStride < kw || cStride < n {
		panic(fmt.Sprintf("tensor: gemm8 strides %d/%d < %d/%d", aStride, cStride, kw, n))
	}
	if m > 0 && (len(a) < (m-1)*aStride+kw || len(c) < (m-1)*cStride+n || len(aSum) < m || len(aScale) < m) {
		panic(fmt.Sprintf("tensor: gemm8 %dx%d over slices of %d/%d", m, n, len(a), len(c)))
	}
	if bias != nil && len(bias) < n {
		panic("tensor: gemm8 bias too short")
	}
	if b.simd == SIMDAVX2 {
		// The vector kernel recovers the same exact S(i,j) and runs the
		// identical dequantizing expression, so its output is
		// bit-identical to the SWAR path below (fuzz-gated).
		gemm8PackedAVX2(m, n, a, aStride, aScale, b, c, cStride, bias)
		return
	}
	panels := (n + 3) / 4
	for pi := 0; pi < panels; pi++ {
		j0 := pi * 4
		jn := n - j0
		if jn > 4 {
			jn = 4
		}
		panel := b.data[pi*kw*4 : pi*kw*4+kw*4]
		i := 0
		// 4-row microkernel: each loaded B word feeds four A rows, so
		// the load-per-multiply ratio halves relative to the 2-row tail.
		for ; i+3 < m; i += 4 {
			a0 := a[i*aStride : i*aStride+kw]
			a1 := a[(i+1)*aStride : (i+1)*aStride+kw]
			a2 := a[(i+2)*aStride : (i+2)*aStride+kw]
			a3 := a[(i+3)*aStride : (i+3)*aStride+kw]
			var u00, u01, u02, u03 int32
			var u10, u11, u12, u13 int32
			var u20, u21, u22, u23 int32
			var u30, u31, u32, u33 int32
			for g := 0; g < kw; g++ {
				line := panel[g*4 : g*4+4]
				b0, b1, b2, b3 := line[0], line[1], line[2], line[3]
				w0, w1, w2, w3 := a0[g], a1[g], a2[g], a3[g]
				u00 += int32((w0 * b0) >> 48)
				u01 += int32((w0 * b1) >> 48)
				u02 += int32((w0 * b2) >> 48)
				u03 += int32((w0 * b3) >> 48)
				u10 += int32((w1 * b0) >> 48)
				u11 += int32((w1 * b1) >> 48)
				u12 += int32((w1 * b2) >> 48)
				u13 += int32((w1 * b3) >> 48)
				u20 += int32((w2 * b0) >> 48)
				u21 += int32((w2 * b1) >> 48)
				u22 += int32((w2 * b2) >> 48)
				u23 += int32((w2 * b3) >> 48)
				u30 += int32((w3 * b0) >> 48)
				u31 += int32((w3 * b1) >> 48)
				u32 += int32((w3 * b2) >> 48)
				u33 += int32((w3 * b3) >> 48)
			}
			dequantRow8(c[i*cStride+j0:], b, j0, jn, aSum[i], aScale[i], bias, u00, u01, u02, u03)
			dequantRow8(c[(i+1)*cStride+j0:], b, j0, jn, aSum[i+1], aScale[i+1], bias, u10, u11, u12, u13)
			dequantRow8(c[(i+2)*cStride+j0:], b, j0, jn, aSum[i+2], aScale[i+2], bias, u20, u21, u22, u23)
			dequantRow8(c[(i+3)*cStride+j0:], b, j0, jn, aSum[i+3], aScale[i+3], bias, u30, u31, u32, u33)
		}
		for ; i+1 < m; i += 2 {
			a0 := a[i*aStride : i*aStride+kw]
			a1 := a[(i+1)*aStride : (i+1)*aStride+kw]
			var u00, u01, u02, u03 int32
			var u10, u11, u12, u13 int32
			for g := 0; g < kw; g++ {
				line := panel[g*4 : g*4+4]
				b0, b1, b2, b3 := line[0], line[1], line[2], line[3]
				w0, w1 := a0[g], a1[g]
				u00 += int32((w0 * b0) >> 48)
				u01 += int32((w0 * b1) >> 48)
				u02 += int32((w0 * b2) >> 48)
				u03 += int32((w0 * b3) >> 48)
				u10 += int32((w1 * b0) >> 48)
				u11 += int32((w1 * b1) >> 48)
				u12 += int32((w1 * b2) >> 48)
				u13 += int32((w1 * b3) >> 48)
			}
			dequantRow8(c[i*cStride+j0:], b, j0, jn, aSum[i], aScale[i], bias, u00, u01, u02, u03)
			dequantRow8(c[(i+1)*cStride+j0:], b, j0, jn, aSum[i+1], aScale[i+1], bias, u10, u11, u12, u13)
		}
		for ; i < m; i++ {
			ai := a[i*aStride : i*aStride+kw]
			var u0, u1, u2, u3 int32
			for g := 0; g < kw; g++ {
				line := panel[g*4 : g*4+4]
				w := ai[g]
				u0 += int32((w * line[0]) >> 48)
				u1 += int32((w * line[1]) >> 48)
				u2 += int32((w * line[2]) >> 48)
				u3 += int32((w * line[3]) >> 48)
			}
			dequantRow8(c[i*cStride+j0:], b, j0, jn, aSum[i], aScale[i], bias, u0, u1, u2, u3)
		}
	}
}

// dequantRow8 is the fused epilogue for one row × panel tile: apply the
// zero-point correction to recover the exact quantized dot products,
// then dequantize with the two scales and add the bias.
func dequantRow8(c []float32, b *PackedB8, j0, jn int, rowSum int32, rowScale float32,
	bias []float32, u0, u1, u2, u3 int32) {
	rowCorr := quantBias * rowSum
	us := [4]int32{u0, u1, u2, u3}
	for r := 0; r < jn; r++ {
		j := j0 + r
		v := rowScale * b.Scale[j] * float32(us[r]-rowCorr+b.corr[j])
		if bias != nil {
			v += bias[j]
		}
		c[r] = v
	}
}
