package tensor

// Axpy32 computes dst[i] += alpha·src[i] in place. The sparse one-hot
// convolutions accumulate kernel rows into output rows with exactly
// this shape (α = the input pixel value), and profiling shows those scatter-adds are the largest shared cost left
// once the GEMMs and SELU run on the vector tier. Each output lane is
// independent — no cross-lane reduction — and the AVX2 kernel uses
// separate multiply and add instructions (no FMA), so every lane
// performs the identical float32 operation sequence to the scalar loop
// below: the tiers are BIT-IDENTICAL and dispatch safely follows the
// runtime level (ActiveSIMD) rather than any snapshot's pack-time tier.
func Axpy32(dst, src []float32, alpha float32) {
	n := len(dst)
	i := 0
	if ActiveSIMD() >= SIMDAVX2 && n >= 8 {
		vecs := n / 8
		axpy32Kern8(&dst[0], &src[0], vecs, alpha)
		i = vecs * 8
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}
