package tensor

// The float64 training kernels: the row update behind Gemm and GemmTA,
// GemmStrided's paired row update, and GemmTATB's dot products. Each
// dispatches on the process tier like Axpy32. Its scalar loop is both
// the portable tier and the test oracle; the AVX2 kernel repeats, in
// every lane, exactly the scalar statement's rounded operations — a
// VMULPD then a VADDPD, never FMA — and vectorizes only across
// independent outputs, never along a sum. Go on amd64 at the default
// GOAMD64=v1 does not fuse x*y+z either, so the two tiers are
// bit-identical (FuzzF64KernelsAgree). None of them skips zeros; the
// GEMMs keep their own skips.

// axpy64 computes c[j] += a·b[j] for j < len(c). c and b must not
// overlap.
func axpy64(c, b []float64, a float64) {
	b = b[:len(c)]
	if activeSIMD == SIMDAVX2 && len(c) >= 4 {
		vecs := len(c) / 4
		axpy64Kern4(&c[0], &b[0], vecs, a)
		c, b = c[vecs*4:], b[vecs*4:]
	}
	axpy64Scalar(c, b, a)
}

// axpy64Scalar is the scalar tier of axpy64 and its reference.
func axpy64Scalar(c, b []float64, a float64) {
	b = b[:len(c)]
	for j, bv := range b {
		c[j] += a * bv
	}
}

// axpyPair64 computes c[j] += a0·b0[j] + a1·b1[j] for j < len(c): the
// two products are added first, then their sum to c[j]. c must not
// overlap b0 or b1.
func axpyPair64(c, b0, b1 []float64, a0, a1 float64) {
	b0, b1 = b0[:len(c)], b1[:len(c)]
	if activeSIMD == SIMDAVX2 && len(c) >= 4 {
		vecs := len(c) / 4
		axpyPair64Kern4(&c[0], &b0[0], &b1[0], vecs, a0, a1)
		c, b0, b1 = c[vecs*4:], b0[vecs*4:], b1[vecs*4:]
	}
	axpyPair64Scalar(c, b0, b1, a0, a1)
}

// axpyPair64Scalar is the scalar tier of axpyPair64 and its reference.
func axpyPair64Scalar(c, b0, b1 []float64, a0, a1 float64) {
	b0, b1 = b0[:len(c)], b1[:len(c)]
	for j := range c {
		c[j] += a0*b0[j] + a1*b1[j]
	}
}

// dotT64 computes c[i*n+j] += Σ_l a[l*m+i]·b[j*bStride+l] for i < m,
// j < n and l < k, each sum starting from zero in ascending l. The
// vector tier takes eight outputs i and four rows j per kernel call;
// rows past n repeat the last row's pointer, and their sums are not
// written back. Outputs i beyond the last full group of eight take the
// scalar loop, which yields the same sums.
func dotT64(m, n, k int, a, b []float64, bStride int, c []float64) {
	i0 := 0
	if activeSIMD == SIMDAVX2 && k > 0 {
		var tile [4 * 8]float64
		for ; i0+8 <= m; i0 += 8 {
			for j := 0; j < n; j += 4 {
				rows := min(n-j, 4)
				row := func(r int) *float64 { return &b[(j+min(r, rows-1))*bStride] }
				dotT64Kern4x8(row(0), row(1), row(2), row(3), &a[i0], m, k, &tile[0])
				for r := 0; r < rows; r++ {
					for lane, s := range tile[r*8 : r*8+8] {
						c[(i0+lane)*n+j+r] += s
					}
				}
			}
		}
	}
	if i0 < m {
		dotT64Scalar(i0, m, n, k, a, b, bStride, c)
	}
}

// dotT64Scalar is dotT64's scalar loop over the outputs i0 ≤ i < m —
// the scalar tier (i0 = 0) and the reference.
func dotT64Scalar(i0, m, n, k int, a, b []float64, bStride int, c []float64) {
	for j := 0; j < n; j++ {
		bj := b[j*bStride : j*bStride+k]
		for i := i0; i < m; i++ {
			sum := 0.0
			for l, bv := range bj {
				sum += a[l*m+i] * bv
			}
			c[i*n+j] += sum
		}
	}
}
