package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzF32KernelsAgree fuzzes the packed float32 GEMM against a float64
// reference over arbitrary shapes — m/n/k of 1, sizes that are not
// multiples of the register tiles, and strided final blocks — packing
// both layouts. It requires (a) the scalar layout, contiguous and
// strided, to agree bit-for-bit with the fixed-order f32 reference (one
// ascending-k sum per element), (b) the f32 results to sit within the
// sequential-summation error bound of the f64 reference, and (c) when
// the process runs the AVX2 tier, the vector layout to be deterministic
// across runs and C layouts and to sit within the same γ_k bound. The
// vector kernel is deliberately NOT required to match the scalar one
// bitwise: FMA fuses the multiply-add rounding, so its (still
// deterministic) chain rounds differently. The committed seed corpus
// under testdata/fuzz pins the historical edge cases.
func FuzzF32KernelsAgree(f *testing.F) {
	f.Add(1, 1, 1, int64(1), 0)     // all-unit dims
	f.Add(4, 4, 4, int64(2), 0)     // exact tile multiples
	f.Add(5, 7, 9, int64(3), 3)     // stragglers on every dim + strides
	f.Add(1, 5, 8, int64(4), 1)     // single-row A, padded final panel
	f.Add(13, 2, 1, int64(5), 2)    // k=1 with a strided final block
	f.Add(3, 4, 129, int64(6), 0)   // long contraction
	f.Add(63, 31, 17, int64(7), 5)  // co-prime everything
	f.Add(7, 16, 32, int64(8), 0)   // 6-row blocks + 1-row tail, exact 16-wide panel
	f.Add(9, 17, 24, int64(9), 2)   // m%6=3 tail, one column into the 2nd vector panel
	f.Add(1, 33, 40, int64(10), 0)  // single-row A across three vector panels
	f.Add(12, 15, 13, int64(11), 1) // n one short of a vector panel, odd k
	f.Add(6, 48, 64, int64(12), 0)  // exact multiples of every vector tile dim

	f.Fuzz(func(t *testing.T, m, n, k int, seed int64, extra int) {
		if m < 1 || n < 1 || k < 1 || m > 64 || n > 64 || k > 256 {
			t.Skip()
		}
		if extra < 0 || extra > 8 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		a := randSlice32(rng, m*k)
		w := randSlice32(rng, n*k)
		// Sprinkle exact zeros, as one-hot encodings do.
		for i := 0; i < len(a); i += 3 {
			a[i] = 0
		}

		want32, want64, abs := refGemm32(m, n, k,
			func(i, l int) float32 { return a[i*k+l] },
			func(l, j int) float32 { return w[j*k+l] })

		// Packed scalar kernel, contiguous (explicitly scalar-packed so
		// the bit-equality checks are meaningful on AVX2 hosts).
		pb := packB32(w, n, k, SIMDNone)
		packed := make([]float32, m*n)
		Gemm32Packed(m, n, k, a, k, pb, packed, n)

		// Packed kernel, strided final blocks: A and C embedded in wider
		// matrices.
		aStride, cStride := k+extra, n+extra
		wideA := make([]float32, m*aStride)
		for i := 0; i < m; i++ {
			copy(wideA[i*aStride:i*aStride+k], a[i*k:(i+1)*k])
		}
		strided := make([]float32, m*cStride)
		Gemm32Packed(m, n, k, wideA, aStride, pb, strided, cStride)

		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				at := i*n + j
				ref := want32[at]
				if packed[at] != ref {
					t.Fatalf("%dx%dx%d [%d,%d]: Gemm32Packed %v != reference %v", m, n, k, i, j, packed[at], ref)
				}
				if strided[i*cStride+j] != ref {
					t.Fatalf("%dx%dx%d [%d,%d]: strided Gemm32Packed %v != reference %v", m, n, k, i, j, strided[i*cStride+j], ref)
				}
				if d := math.Abs(float64(ref) - want64[at]); d > f32Tol(k, abs[at]) {
					t.Fatalf("%dx%dx%d [%d,%d]: f32 drift %g exceeds the γ_k bound %g",
						m, n, k, i, j, d, f32Tol(k, abs[at]))
				}
			}
		}

		// Vector kernel cross-check (AVX2 tier only). Every output
		// element is one fixed-lane ascending-k FMA chain, so the vector
		// path must be bit-reproducible run-to-run and across C layouts —
		// and the fused rounding still satisfies the γ_k bound (FMA error
		// per step is no larger than mul-then-add).
		if ActiveSIMD() == SIMDAVX2 {
			vb := PackB32(w, n, k)
			if vb.nr != packNRAVX2 {
				t.Fatalf("%dx%dx%d: PackB32 on the AVX2 tier built a %d-wide layout", m, n, k, vb.nr)
			}
			vec := make([]float32, m*n)
			Gemm32Packed(m, n, k, a, k, vb, vec, n)
			again := make([]float32, m*n)
			Gemm32Packed(m, n, k, a, k, vb, again, n)
			vecStrided := make([]float32, m*cStride)
			Gemm32Packed(m, n, k, wideA, aStride, vb, vecStrided, cStride)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					at := i*n + j
					if vec[at] != again[at] {
						t.Fatalf("%dx%dx%d [%d,%d]: AVX2 run-to-run drift %v != %v", m, n, k, i, j, vec[at], again[at])
					}
					if vecStrided[i*cStride+j] != vec[at] {
						t.Fatalf("%dx%dx%d [%d,%d]: strided AVX2 %v != contiguous %v",
							m, n, k, i, j, vecStrided[i*cStride+j], vec[at])
					}
					if d := math.Abs(float64(vec[at]) - want64[at]); d > f32Tol(k, abs[at]) {
						t.Fatalf("%dx%dx%d [%d,%d]: AVX2 drift %g exceeds the γ_k bound %g",
							m, n, k, i, j, d, f32Tol(k, abs[at]))
					}
				}
			}
		}
	})
}
