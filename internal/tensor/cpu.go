// Kernel tier. The packed inference kernels come in two
// implementations: the portable scalar Go loops and hand-written amd64
// AVX2/FMA float32 microkernels. The tier is decided ONCE per process,
// from CPUID at start-up (AVX2 + FMA + OS ymm state): every packed
// operand, every model snapshot and every elementwise call in the
// process runs it. Each tier is held to the f64 oracle's tolerance, so
// the tier depends only on the CPU and is not a setting.
//
// Both tiers stay tested on any host: tensor's tests run the scalar
// kernels directly, and a non-amd64 build (GOARCH=386) runs the scalar
// tier end to end.
package tensor

// SIMD identifies a kernel tier.
type SIMD uint8

const (
	// SIMDNone selects the portable scalar kernels.
	SIMDNone SIMD = iota
	// SIMDAVX2 selects the amd64 AVX2/FMA microkernels.
	SIMDAVX2
)

// String returns the tier's name as surfaced in stats and bench
// records ("none", "avx2").
func (s SIMD) String() string {
	if s == SIMDAVX2 {
		return "avx2"
	}
	return "none"
}

var activeSIMD = detectSIMD()

func detectSIMD() SIMD {
	if hasAVX2FMA() {
		return SIMDAVX2
	}
	return SIMDNone
}

// ActiveSIMD reports the process's kernel tier.
func ActiveSIMD() SIMD { return activeSIMD }

// CPUFeatures lists the detected vector features relevant to the
// kernels (e.g. "avx2,fma") — recorded in bench trajectories so points
// are comparable across machines.
func CPUFeatures() string { return cpuFeatureList() }
