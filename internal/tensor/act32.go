package tensor

import "math"

// Vectorized SELU for the f32 inference engine. Profiling the
// pool-prediction path shows the pointwise activation is the largest
// non-GEMM cost once the GEMMs run on the vector tier, so SELU — the
// default architecture's activation — gets its own AVX2 kernel. The
// kernel deliberately uses separate multiply and add instructions (no
// FMA): every lane then performs exactly the float32 operation sequence
// of the scalar code below, making the vector and scalar paths
// BIT-IDENTICAL.

// exp32 range-reduction constants (ln2 split hi/lo) and the SELU
// coefficients λ and α·λ from Klambauer et al.
const (
	exp32Log2e = float32(1.4426950408889634)
	exp32Ln2Hi = float32(0.693359375)
	exp32Ln2Lo = float32(-2.12194440e-4)
	seluLambda = float32(1.0507009873554805)
	seluAlphaL = float32(1.6732632423543772 * 1.0507009873554805)
	seluCutoff = float32(-87.33) // e^x underflows to 0 below this
)

// selu32Consts is the broadcast table the AVX2 kernel reads. Order is
// load-bearing: the .s file addresses entries by byte offset.
var selu32Consts = [16]float32{
	0:  exp32Log2e,
	1:  0.5,
	2:  exp32Ln2Hi,
	3:  exp32Ln2Lo,
	4:  1.0 / 720.0,
	5:  1.0 / 120.0,
	6:  1.0 / 24.0,
	7:  1.0 / 6.0,
	8:  1.0,
	9:  seluCutoff,
	10: math.Float32frombits(127), // int32 exponent bias for VPADDD
	// 11..13 are filled per call: λ, αλ, −αλ.
}

// SELU32 applies selu(x) = λ·x for x ≥ 0, λα·(eˣ−1) otherwise, in
// place, using the AVX2 kernel for full 8-lane groups on the AVX2 tier
// and the scalar core for the tail (and on the scalar tier). Both
// produce identical bits for every input.
func SELU32(xs []float32, lambda, alphaLambda float32) {
	if activeSIMD == SIMDAVX2 && len(xs) >= 8 {
		tab := selu32Consts
		tab[11], tab[12], tab[13] = lambda, alphaLambda, -alphaLambda
		vecs := len(xs) / 8
		selu32Kern8(&xs[0], vecs, &tab[0])
		xs = xs[vecs*8:]
	}
	selu32Scalar(xs, lambda, alphaLambda)
}

// selu32Scalar is the reference implementation: exp32's range-reduced
// degree-6 polynomial inlined with the negative-branch rounding (x < 0
// means k truncates toward −∞ branch-free). The AVX2 kernel mirrors
// this operation-for-operation.
func selu32Scalar(xs []float32, lambda, alphaLambda float32) {
	for i, x := range xs {
		if x >= 0 {
			xs[i] = lambda * x
			continue
		}
		if x < seluCutoff {
			xs[i] = -alphaLambda // e^x underflowed to 0
			continue
		}
		k := int32(exp32Log2e*x - 0.5)
		r := x - float32(k)*exp32Ln2Hi
		r -= float32(k) * exp32Ln2Lo
		p := float32(1.0 / 720.0)
		p = p*r + float32(1.0/120.0)
		p = p*r + float32(1.0/24.0)
		p = p*r + float32(1.0/6.0)
		p = p*r + 0.5
		p = p*r + 1
		p = p*r + 1
		xs[i] = alphaLambda * (p*math.Float32frombits(uint32(k+127)<<23) - 1)
	}
}
