package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randSlice32(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// refGemm32 is the bit-exact reference: one ascending-k float32 sum per
// C element, folded into C at the end — the accumulation order every
// f32 kernel promises. It also returns the f64 result and the summed
// absolute terms for error-bound checks.
func refGemm32(m, n, k int, at func(i, l int) float32, bt func(l, j int) float32) (f32 []float32, f64 []float64, absSum []float64) {
	f32 = make([]float32, m*n)
	f64 = make([]float64, m*n)
	absSum = make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s32 float32
			var s64, abs float64
			for l := 0; l < k; l++ {
				av, bv := at(i, l), bt(l, j)
				s32 += av * bv
				s64 += float64(av) * float64(bv)
				abs += math.Abs(float64(av) * float64(bv))
			}
			f32[i*n+j] = s32
			f64[i*n+j] = s64
			absSum[i*n+j] = abs
		}
	}
	return
}

// f32Tol returns the sequential-summation error bound γ_k·Σ|terms| for
// float32 accumulation (u = 2⁻²⁴), padded with a small absolute term.
func f32Tol(k int, absSum float64) float64 {
	const u = 1.0 / (1 << 24)
	return float64(k+2)*u*absSum + 1e-10
}

// shapes32 covers the tiling edges: unit dims, exact multiples of the
// 4-wide tiles, and stragglers on both m and n.
var shapes32 = [][3]int{
	{1, 1, 1}, {4, 4, 4}, {5, 7, 9}, {3, 4, 1}, {1, 5, 8},
	{8, 8, 16}, {6, 11, 13}, {13, 2, 5}, {2, 13, 3},
}

func TestGemm32PackedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range shapes32 {
		m, n, k := dims[0], dims[1], dims[2]
		a := randSlice32(rng, m*k)
		w := randSlice32(rng, n*k) // n×k weight matrix, used as Bᵀ
		want32, want64, abs := refGemm32(m, n, k,
			func(i, l int) float32 { return a[i*k+l] },
			func(l, j int) float32 { return w[j*k+l] })

		got := make([]float32, m*n)
		Gemm32Packed(m, n, k, a, k, packB32(w, n, k, SIMDNone), got, n)
		for i := range got {
			if got[i] != want32[i] {
				t.Fatalf("Gemm32Packed %dx%dx%d [%d]: %v, want bit-exact %v", m, n, k, i, got[i], want32[i])
			}
			if d := math.Abs(float64(got[i]) - want64[i]); d > f32Tol(k, abs[i]) {
				t.Fatalf("Gemm32Packed %dx%dx%d [%d]: f64 drift %g > bound", m, n, k, i, d)
			}
		}

		// The AVX2/FMA kernel rounds differently (fused multiply-add) but
		// must satisfy the same γ_k bound against the f64 reference.
		if ActiveSIMD() == SIMDAVX2 {
			vec := make([]float32, m*n)
			Gemm32Packed(m, n, k, a, k, packB32(w, n, k, SIMDAVX2), vec, n)
			for i := range vec {
				if d := math.Abs(float64(vec[i]) - want64[i]); d > f32Tol(k, abs[i]) {
					t.Fatalf("AVX2 Gemm32Packed %dx%dx%d [%d]: f64 drift %g > bound", m, n, k, i, d)
				}
			}
		}
	}
}

// TestGemm32PackedStrides embeds A and C in wider matrices: the padding
// lanes must neither leak in nor be written.
func TestGemm32PackedStrides(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const m, n, k = 5, 6, 7
	a := randSlice32(rng, m*k)
	w := randSlice32(rng, n*k)
	want := make([]float32, m*n)
	Gemm32Packed(m, n, k, a, k, PackB32(w, n, k), want, n)

	const aStride, cStride = k + 3, n + 2
	wideA := make([]float32, m*aStride)
	for i := range wideA {
		wideA[i] = float32(math.NaN()) // poison the padding lanes
	}
	for i := 0; i < m; i++ {
		copy(wideA[i*aStride:i*aStride+k], a[i*k:(i+1)*k])
	}
	wideC := make([]float32, m*cStride)
	const sentinel = 42.5
	for i := range wideC {
		wideC[i] = sentinel
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			wideC[i*cStride+j] = 0
		}
	}
	Gemm32Packed(m, n, k, wideA, aStride, PackB32(w, n, k), wideC, cStride)
	for i := 0; i < m; i++ {
		for j := 0; j < cStride; j++ {
			got := wideC[i*cStride+j]
			if j < n {
				if got != want[i*n+j] {
					t.Fatalf("strided [%d,%d]: %v != %v", i, j, got, want[i*n+j])
				}
			} else if got != sentinel {
				t.Fatalf("padding lane [%d,%d] written: %v", i, j, got)
			}
		}
	}
}

func TestGemm32Accumulates(t *testing.T) {
	cp := []float32{1, 1}
	Gemm32Packed(1, 2, 1, []float32{2}, 1, PackB32([]float32{3, 4}, 2, 1), cp, 2)
	if cp[0] != 7 || cp[1] != 9 {
		t.Fatalf("packed accumulation broken: %v", cp)
	}
}

// TestIm2Row32MatchesIm2Col pins the NHWC position-major lowering to
// the f64 channel-major Im2Col: entry (q, (ky,kx,ic)) of the row matrix
// must equal entry ((ic,ky,kx), q) of the column matrix.
func TestIm2Row32MatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][5]int{
		{1, 5, 6, 3, 4}, // c,h,w,kh,kw — single channel (first conv shape)
		{3, 4, 4, 2, 2},
		{2, 6, 3, 3, 3},
		{1, 1, 1, 1, 1},
	} {
		c, h, w, kh, kw := dims[0], dims[1], dims[2], dims[3], dims[4]
		padY, padX := (kh-1)/2, (kw-1)/2
		oh, ow := h, w

		chw := make([]float64, c*h*w) // NCHW f64 image
		for i := range chw {
			chw[i] = rng.NormFloat64()
		}
		nhwc := make([]float32, h*w*c)
		for ic := 0; ic < c; ic++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					nhwc[(y*w+x)*c+ic] = float32(chw[(ic*h+y)*w+x])
				}
			}
		}

		cols := make([]float64, c*kh*kw*oh*ow)
		Im2Col(chw, c, h, w, kh, kw, padY, padX, oh, ow, cols)
		rows := make([]float32, oh*ow*kh*kw*c)
		Im2Row32(nhwc, h, w, c, kh, kw, padY, padX, oh, ow, rows)

		patch := kh * kw * c
		for q := 0; q < oh*ow; q++ {
			for ic := 0; ic < c; ic++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						r := (ic*kh+ky)*kw + kx          // f64 row index
						e := (ky*kw+kx)*c + ic           // f32 patch offset
						want := float32(cols[r*oh*ow+q]) // exact: values are casts
						got := rows[q*patch+e]
						if got != want {
							t.Fatalf("c%d h%d w%d k%dx%d q=%d (ic%d ky%d kx%d): %v != %v",
								c, h, w, kh, kw, q, ic, ky, kx, got, want)
						}
					}
				}
			}
		}
	}
}

// TestGemmTBTiledBitIdentical pins the tiled f64 GemmTB to the plain
// per-element dot-product form: tiling must not change a single bit.
func TestGemmTBTiledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 4, 8}, {5, 7, 9}, {3, 13, 4}, {8, 3, 16}, {7, 12, 31}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, n*k)
		want := make([]float64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				sum := 0.0
				for l := 0; l < k; l++ {
					sum += a[i*k+l] * b[j*k+l]
				}
				want[i*n+j] += sum
			}
		}
		got := make([]float64, m*n)
		GemmTB(m, n, k, a, b, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GemmTB %dx%dx%d [%d]: tiled %v != dot %v", m, n, k, i, got[i], want[i])
			}
		}
	}
}
