package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// gemmTBDot is the pre-tiling GemmTB (one dot product per output
// element), kept as the benchmark baseline for the register-tiled
// version. The tiled kernel is bit-identical to this form
// (TestGemmTBTiledBitIdentical); the benchmark measures only speed.
func gemmTBDot(m, n, k int, a, b, c []float64) {
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			sum := 0.0
			for l, av := range ai {
				sum += av * bj[l]
			}
			ci[j] += sum
		}
	}
}

// gemmTBShapes are the shapes the engine actually runs GemmTB at: the
// trainer's batch-5 Dense forward, a prediction chunk through Dense,
// and the blocked convolution backward's weight-gradient product.
var gemmTBShapes = [][3]int{
	{5, 32, 32},    // Trainer.Step Dense forward (batch 5, FastArch)
	{64, 32, 32},   // prediction-chunk Dense forward
	{8, 144, 4608}, // conv2 backward dW (OutC × K × block·HW)
	{64, 64, 64},   // square reference point
}

func BenchmarkGemmTB(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range gemmTBShapes {
		m, n, k := dims[0], dims[1], dims[2]
		a := randSlice(rng, m*k)
		w := randSlice(rng, n*k)
		c := make([]float64, m*n)
		for name, kernel := range map[string]func(m, n, k int, a, b, c []float64){
			"dot": gemmTBDot, "tiled": GemmTB,
		} {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", name, m, n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kernel(m, n, k, a, w, c)
				}
				b.ReportMetric(float64(2*m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
			})
		}
	}
}

func BenchmarkGemm32Packed(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{
		{2304, 8, 144}, // conv2 f32 forward: block·HW × OutC × K (FastArch)
		{64, 32, 32},   // prediction-chunk Dense forward
		{64, 64, 64},
	} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randSlice32(rng, m*k)
		w := randSlice32(rng, n*k)
		pb := PackB32(w, n, k)
		c := make([]float32, m*n)
		b.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Gemm32Packed(m, n, k, a, k, pb, c, n)
			}
			b.ReportMetric(float64(2*m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
		})
	}
}

// simdBenchShapes are the (m, n, k) shapes the registered architectures
// actually emit through the packed inference GEMMs: FastArch's interior
// conv block, locally-connected chunk and dense chunks, plus
// PaperArch's heavyweight conv, local and dense stages.
var simdBenchShapes = [][3]int{
	{2304, 8, 144},    // FastArch conv2 forward (block·HW × OutC × K)
	{64, 8, 32},       // FastArch local position (chunk × OutC × K)
	{64, 32, 32},      // FastArch hidden dense (chunk × Out × In)
	{64, 7, 32},       // FastArch logits dense
	{121, 200, 14400}, // PaperArch conv2 forward (HW × OutC × K)
	{64, 16, 1800},    // PaperArch local position
	{64, 128, 1024},   // PaperArch hidden dense
}

// BenchmarkGemm32PackedSIMD compares the scalar 4×4 f32 kernel against
// the AVX2/FMA 6×16 kernel on the same operands, each leg packing its
// own layout. The AVX2 legs are skipped when the process runs the
// scalar tier.
func BenchmarkGemm32PackedSIMD(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range simdBenchShapes {
		m, n, k := dims[0], dims[1], dims[2]
		a := randSlice32(rng, m*k)
		w := randSlice32(rng, n*k)
		c := make([]float32, m*n)
		for _, simd := range []SIMD{SIMDNone, SIMDAVX2} {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", simd, m, n, k), func(b *testing.B) {
				if simd > ActiveSIMD() {
					b.Skipf("%s not supported on this CPU", simd)
				}
				pb := packB32(w, n, k, simd)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Gemm32Packed(m, n, k, a, k, pb, c, n)
				}
				b.ReportMetric(float64(2*m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
			})
		}
	}
}
