package tensor

// Axpy32 computes dst[i] += alpha·src[i] in place. The sparse one-hot
// convolutions accumulate kernel rows into output rows with exactly
// this shape (α = the input pixel value), and profiling shows those scatter-adds are the largest shared cost left
// once the GEMMs and SELU run on the vector tier. Each output lane is
// independent — no cross-lane reduction — and the AVX2 kernel uses
// separate multiply and add instructions (no FMA), so every lane
// performs the identical float32 operation sequence to axpy32Scalar:
// the tiers are BIT-IDENTICAL.
func Axpy32(dst, src []float32, alpha float32) {
	if activeSIMD == SIMDAVX2 && len(dst) >= 8 {
		vecs := len(dst) / 8
		axpy32Kern8(&dst[0], &src[0], vecs, alpha)
		dst, src = dst[vecs*8:], src[vecs*8:]
	}
	axpy32Scalar(dst, src, alpha)
}

// axpy32Scalar is the scalar tier of Axpy32 and its reference.
func axpy32Scalar(dst, src []float32, alpha float32) {
	for i := range dst {
		dst[i] += alpha * src[i]
	}
}
