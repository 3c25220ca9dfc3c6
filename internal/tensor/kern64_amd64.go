package tensor

// axpy64Kern4 (kern64_amd64.s) computes c[j] += a·b[j] over vecs
// 4-double groups: VMULPD then VADDPD, never FMA, so every lane
// rounds exactly like axpy64Scalar.
//
//go:noescape
func axpy64Kern4(c, b *float64, vecs int, a float64)

// axpyPair64Kern4 (kern64_amd64.s) computes c[j] += a0·b0[j] + a1·b1[j]
// over vecs 4-double groups: two VMULPDs, the VADDPD of the products,
// then the VADDPD into c — the four rounded operations of
// axpyPair64Scalar, in its order.
//
//go:noescape
func axpyPair64Kern4(c, b0, b1 *float64, vecs int, a0, a1 float64)

// dotT64Kern4x8 (kern64_amd64.s) stores into tile[r*8+i] the sum
// Σ_l b_r[l]·a[l*aStride+i] for the four rows b0…b3 and the eight
// outputs i, each lane accumulating from zero in ascending l with a
// VMULPD then a VADDPD per step — dotT64Scalar's sum. k may be 0 (the
// tile is zeroed).
//
//go:noescape
func dotT64Kern4x8(b0, b1, b2, b3, a *float64, aStride, k int, tile *float64)
