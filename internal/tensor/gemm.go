// Batched-execution kernels: dense matrix multiplication in the three
// transpose variants the neural-network layers need, plus the
// im2col/col2im lowering that turns convolution into GEMM. All kernels
// are written so that the accumulation order over the contraction
// dimension is fixed per output element — results are independent of how
// a batch is sharded across workers, which is what makes parallel pool
// prediction deterministic.
package tensor

import "fmt"

// Gemm computes C += A·B for row-major matrices: A is m×k, B is k×n and
// C is m×n. The inner loops run over contiguous slices (ikj order), so
// the contraction accumulates in ascending k for every C element.
//
// Zero A elements are skipped: one-hot flow encodings make the first
// convolution's im2col matrix overwhelmingly sparse, and adding a zero
// product is a no-op. Each remaining row update runs on the process
// tier (axpy64).
func Gemm(m, n, k int, a, b, c []float64) {
	checkGemm(m, n, k, len(a), len(b), len(c))
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		for l, av := range ai {
			if av == 0 {
				continue
			}
			axpy64(ci, b[l*n:(l+1)*n], av)
		}
	}
}

// GemmTA computes C += Aᵀ·B where A is stored k×m (so Aᵀ is m×k), B is
// k×n and C is m×n. This is the shape of input-gradient and
// weight-gradient products in backpropagation. Like Gemm it skips zero
// A elements and runs each row update on the process tier.
func GemmTA(m, n, k int, a, b, c []float64) {
	checkGemm(m, n, k, len(a), len(b), len(c))
	for l := 0; l < k; l++ {
		al := a[l*m : (l+1)*m]
		bl := b[l*n : (l+1)*n]
		for i, av := range al {
			if av == 0 {
				continue
			}
			axpy64(c[i*n:(i+1)*n], bl, av)
		}
	}
}

// GemmTB computes C += A·Bᵀ where A is m×k, B is stored n×k (so Bᵀ is
// k×n) and C is m×n. Both operands stream row-major. The loops are
// register tiled 2×4: two A rows against four B rows accumulate in
// eight scalars per pass, so every A and B load is reused four (resp.
// two) times instead of once. Each C element is still one ascending-k
// sum folded in at the end — bit-identical to the untiled dot-product
// form, so tiling changes no observable numerics. This is the forward
// product of Dense layers (X·Wᵀ with W stored out×in) and the
// weight-gradient product of the blocked convolution backward pass.
func GemmTB(m, n, k int, a, b, c []float64) {
	checkGemm(m, n, k, len(a), len(b), len(c))
	i := 0
	for ; i+1 < m; i += 2 {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		c0 := c[i*n : (i+1)*n]
		c1 := c[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+3 < n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for l, av := range a0 {
				bv0, bv1, bv2, bv3 := b0[l], b1[l], b2[l], b3[l]
				s00 += av * bv0
				s01 += av * bv1
				s02 += av * bv2
				s03 += av * bv3
				av = a1[l]
				s10 += av * bv0
				s11 += av * bv1
				s12 += av * bv2
				s13 += av * bv3
			}
			c0[j] += s00
			c0[j+1] += s01
			c0[j+2] += s02
			c0[j+3] += s03
			c1[j] += s10
			c1[j+1] += s11
			c1[j+2] += s12
			c1[j+3] += s13
		}
		for ; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			var s0, s1 float64
			for l, av := range a0 {
				s0 += av * bj[l]
				s1 += a1[l] * bj[l]
			}
			c0[j] += s0
			c1[j] += s1
		}
	}
	for ; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*n : (i+1)*n]
		j := 0
		for ; j+3 < n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for l, av := range ai {
				s0 += av * b0[l]
				s1 += av * b1[l]
				s2 += av * b2[l]
				s3 += av * b3[l]
			}
			ci[j] += s0
			ci[j+1] += s1
			ci[j+2] += s2
			ci[j+3] += s3
		}
		for ; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			sum := 0.0
			for l, av := range ai {
				sum += av * bj[l]
			}
			ci[j] += sum
		}
	}
}

// GemmStrided computes C += A·B where B's rows are laid out with an
// explicit stride ≥ n (a blocked patch matrix whose final block uses
// fewer columns than were allocated). The contraction is unrolled
// two-wide — each pass over a C row folds in two A elements, halving the
// row's load/store traffic; the pairing depends only on k, so results
// stay independent of batch and block size. There is no zero skip: this
// is the convolution forward kernel, whose A (the kernel matrix) is
// dense. The paired and single row updates run on the process tier
// (axpyPair64, axpy64).
func GemmStrided(m, n, k int, a, b []float64, bStride int, c []float64) {
	if bStride < n {
		panic(fmt.Sprintf("tensor: gemm B stride %d < %d columns", bStride, n))
	}
	if len(a) < m*k || len(b) < (k-1)*bStride+n || len(c) < m*n {
		panic(fmt.Sprintf("tensor: strided gemm %dx%dx%d (stride %d) over slices of %d/%d/%d",
			m, n, k, bStride, len(a), len(b), len(c)))
	}
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		l := 0
		for ; l+1 < k; l += 2 {
			axpyPair64(ci, b[l*bStride:l*bStride+n], b[(l+1)*bStride:(l+1)*bStride+n], ai[l], ai[l+1])
		}
		if l < k {
			axpy64(ci, b[l*bStride:l*bStride+n], ai[l])
		}
	}
}

// GemmTATB computes C += Aᵀ·Bᵀ where A is stored k×m (so Aᵀ is m×k), B
// holds n rows of k elements whose starts lie bStride apart (so Bᵀ is
// k×n), and C is m×n. Every C element is one dot product summed from
// zero in ascending k and then added, as in GemmTB; the AVX2 tier
// computes eight of them per vector pair, one per lane (dotT64). This
// is the convolution weight-gradient product: A is the block's output
// gradient position-major, B the patch matrix, whose block may sit at a
// column offset of a wider matrix.
func GemmTATB(m, n, k int, a, b []float64, bStride int, c []float64) {
	if bStride < k {
		panic(fmt.Sprintf("tensor: gemm B stride %d < %d columns", bStride, k))
	}
	if len(a) < m*k || len(b) < (n-1)*bStride+k || len(c) < m*n {
		panic(fmt.Sprintf("tensor: gemm TATB %dx%dx%d (stride %d) over slices of %d/%d/%d",
			m, n, k, bStride, len(a), len(b), len(c)))
	}
	dotT64(m, n, k, a, b, bStride, c)
}

func checkGemm(m, n, k, la, lb, lc int) {
	if la < m*k || lb < k*n || lc < m*n {
		panic(fmt.Sprintf("tensor: gemm %dx%dx%d over slices of %d/%d/%d", m, n, k, la, lb, lc))
	}
}

// Im2Col lowers one C×H×W image into the (C*KH*KW) × (OH*OW) patch
// matrix of a stride-1 convolution with top/left padding padY/padX
// (out-of-range inputs contribute zeros). Row r = (ic*KH+ky)*KW+kx holds
// input channel ic at kernel offset (ky,kx); column q = y*OW+x is the
// output position. dst must hold C*KH*KW*OH*OW elements and is fully
// overwritten.
func Im2Col(src []float64, c, h, w, kh, kw, padY, padX, oh, ow int, dst []float64) {
	Im2ColBlock(src, c, h, w, kh, kw, padY, padX, oh, ow, dst, oh*ow, 0)
}

// Im2ColBlock is Im2Col writing into a wider patch matrix whose rows
// have rowStride elements, placing this image's columns at colOff. It
// lets several samples share one patch matrix — and therefore one GEMM —
// which keeps the multiply's inner loops long even when a single image
// has few output positions.
func Im2ColBlock(src []float64, c, h, w, kh, kw, padY, padX, oh, ow int, dst []float64, rowStride, colOff int) {
	if len(src) < c*h*w || len(dst) < (c*kh*kw-1)*rowStride+colOff+oh*ow {
		panic("tensor: im2col buffer size mismatch")
	}
	r := 0
	for ic := 0; ic < c; ic++ {
		chOff := ic * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := dst[r*rowStride+colOff : r*rowStride+colOff+oh*ow]
				// Valid x-range for this kernel column: outside it the
				// input is padding. Hoisting the bounds turns the inner
				// loop into one bulk copy flanked by zero fills.
				xLo, xHi := padX-kx, w-kx+padX
				if xLo < 0 {
					xLo = 0
				}
				if xHi > ow {
					xHi = ow
				}
				for y := 0; y < oh; y++ {
					out := row[y*ow : (y+1)*ow]
					iy := y + ky - padY
					if iy < 0 || iy >= h || xLo >= xHi {
						for i := range out {
							out[i] = 0
						}
						continue
					}
					srcRow := src[chOff+iy*w : chOff+(iy+1)*w]
					for x := 0; x < xLo; x++ {
						out[x] = 0
					}
					copy(out[xLo:xHi], srcRow[xLo+kx-padX:xHi+kx-padX])
					for x := xHi; x < ow; x++ {
						out[x] = 0
					}
				}
				r++
			}
		}
	}
}

// Col2Im scatter-adds a patch-matrix gradient (the layout produced by
// Im2Col) back into a C×H×W image gradient. dst is accumulated into, not
// overwritten — zero it first if it holds stale values.
func Col2Im(cols []float64, c, h, w, kh, kw, padY, padX, oh, ow int, dst []float64) {
	Col2ImBlock(cols, c, h, w, kh, kw, padY, padX, oh, ow, dst, oh*ow, 0)
}

// Col2ImBlock is Col2Im reading from a wider patch-gradient matrix whose
// rows have rowStride elements, taking this image's columns at colOff —
// the scatter inverse of Im2ColBlock. It lets the convolution backward
// pass compute one blocked input-gradient GEMM for several samples and
// then scatter each sample's slice back into its image gradient.
func Col2ImBlock(cols []float64, c, h, w, kh, kw, padY, padX, oh, ow int, dst []float64, rowStride, colOff int) {
	if len(dst) < c*h*w || len(cols) < (c*kh*kw-1)*rowStride+colOff+oh*ow {
		panic("tensor: col2im buffer size mismatch")
	}
	r := 0
	for ic := 0; ic < c; ic++ {
		chOff := ic * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := cols[r*rowStride+colOff : r*rowStride+colOff+oh*ow]
				for y := 0; y < oh; y++ {
					iy := y + ky - padY
					if iy < 0 || iy >= h {
						continue
					}
					dstRow := dst[chOff+iy*w : chOff+(iy+1)*w]
					src := row[y*ow : (y+1)*ow]
					for x, v := range src {
						ix := x + kx - padX
						if ix < 0 || ix >= w {
							continue
						}
						dstRow[ix] += v
					}
				}
				r++
			}
		}
	}
}
