//go:build !amd64

package tensor

// The vector drivers are unreachable off amd64: the process tier is
// always SIMDNone there, so a packed operand never carries a vector
// layout and the elementwise kernels never take their vector branch.
// These stubs keep the dispatch switches compiling.

func gemm32PackedAVX2(m, n, k int, a []float32, aStride int, b *PackedB32, c []float32, cStride int) {
	panic("tensor: AVX2 f32 kernel on a non-amd64 build")
}

func selu32Kern8(x *float32, vecs int, consts *float32) {
	panic("tensor: AVX2 SELU kernel on a non-amd64 build")
}

func axpy32Kern8(dst, src *float32, vecs int, alpha float32) {
	panic("tensor: AVX2 axpy kernel on a non-amd64 build")
}

func axpy64Kern4(c, b *float64, vecs int, a float64) {
	panic("tensor: AVX2 f64 row-update kernel on a non-amd64 build")
}

func axpyPair64Kern4(c, b0, b1 *float64, vecs int, a0, a1 float64) {
	panic("tensor: AVX2 f64 paired row-update kernel on a non-amd64 build")
}

func dotT64Kern4x8(b0, b1, b2, b3, a *float64, aStride, k int, tile *float64) {
	panic("tensor: AVX2 f64 dot-product kernel on a non-amd64 build")
}
