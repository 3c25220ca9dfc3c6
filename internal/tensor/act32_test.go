package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestSELU32VectorMatchesScalar pins SELU32 on the process's tier to
// the scalar core bit-for-bit: the AVX2 kernel promises the identical
// float32 operation sequence per lane (no FMA), so every output —
// including the underflow clamp, values straddling the range-reduction
// boundaries, zeros, and denormals — must be byte-equal.
func TestSELU32VectorMatchesScalar(t *testing.T) {
	const lambda = float32(1.0507009873554805)
	const alphaLambda = float32(1.6732632423543772 * 1.0507009873554805)

	rng := rand.New(rand.NewSource(42))
	for _, size := range []int{1, 7, 8, 9, 15, 16, 63, 64, 1000, 1027} {
		xs := make([]float32, size)
		for i := range xs {
			switch i % 7 {
			case 0:
				xs[i] = rng.Float32()*20 - 10 // typical activations
			case 1:
				xs[i] = -rng.Float32() * 100 // deep negative, some below cutoff
			case 2:
				xs[i] = 0
			case 3:
				xs[i] = rng.Float32() * 1e-4 // near zero positive
			case 4:
				xs[i] = -rng.Float32() * 1e-4 // near zero negative
			case 5:
				xs[i] = -87.33 + rng.Float32() // straddle the underflow cutoff
			default:
				xs[i] = float32(math.Ldexp(float64(rng.Float32()), -rng.Intn(140))) // tiny/denormal
			}
		}
		want := make([]float32, size)
		copy(want, xs)
		selu32Scalar(want, lambda, alphaLambda)

		got := make([]float32, size)
		copy(got, xs)
		SELU32(got, lambda, alphaLambda)

		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("size %d [%d]: selu(%v) = %v (%s) != %v (scalar) — tiers must be bit-identical",
					size, i, xs[i], got[i], ActiveSIMD(), want[i])
			}
		}
	}
}

// TestAxpy32VectorMatchesScalar pins Axpy32 on the process's tier to
// the scalar loop bit-for-bit, including α = 1 (the one-hot plain-add
// case, exact by IEEE multiplication), α = 0 against negative values
// (−0 handling), and unaligned tails.
func TestAxpy32VectorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, size := range []int{1, 7, 8, 9, 31, 32, 33, 257} {
		for _, alpha := range []float32{0, 1, -1, 0.37, -2.5e-3, 1e20} {
			dst := make([]float32, size)
			src := make([]float32, size)
			for i := range src {
				dst[i] = rng.Float32()*2 - 1
				src[i] = rng.Float32()*2 - 1
			}
			want := make([]float32, size)
			copy(want, dst)
			axpy32Scalar(want, src, alpha)
			got := make([]float32, size)
			copy(got, dst)
			Axpy32(got, src, alpha)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("size %d alpha %v [%d]: %v (%s) != %v (scalar)",
						size, alpha, i, got[i], ActiveSIMD(), want[i])
				}
			}
		}
	}
}
