// Runtime SIMD dispatch. The packed inference kernels come in two
// implementations: the portable scalar Go loops (the differential
// oracle — they run everywhere and never change) and hand-written
// amd64 AVX2/FMA float32 microkernels. Which one a GEMM runs is
// decided ONCE, at pack time: the packed weight operand's layout
// encodes the kernel (panel width 4 for scalar, 16 for AVX2), so a
// model snapshot compiled under one dispatch level keeps using that
// level's kernels for its whole lifetime — no per-call branching
// drift, and a serving process can report exactly which tier each
// model runs on.
//
// The level is detected from CPUID at startup (AVX2 + FMA + OS ymm
// state) and can be overridden with FLOWGEN_SIMD:
//
//	FLOWGEN_SIMD=off    force the portable scalar kernels
//	FLOWGEN_SIMD=avx2   request the AVX2 kernels (still clamped to
//	                    hardware support, so it cannot SIGILL)
//
// Tests flip the level at runtime with SetSIMD to compare both
// pipelines in one process.
package tensor

import (
	"os"
	"strings"
)

// SIMD identifies a vector-kernel dispatch level.
type SIMD uint8

const (
	// SIMDNone selects the portable scalar kernels.
	SIMDNone SIMD = iota
	// SIMDAVX2 selects the amd64 AVX2/FMA microkernels.
	SIMDAVX2
)

// String returns the level's name as surfaced in stats and bench
// records ("none", "avx2").
func (s SIMD) String() string {
	if s == SIMDAVX2 {
		return "avx2"
	}
	return "none"
}

var activeSIMD = detectSIMD()

func detectSIMD() SIMD {
	level := SupportedSIMD()
	switch strings.ToLower(os.Getenv("FLOWGEN_SIMD")) {
	case "off", "none", "scalar":
		level = SIMDNone
	case "avx2":
		// Explicit request: still clamped to hardware support so a
		// mis-set environment cannot select an illegal instruction.
		if SupportedSIMD() >= SIMDAVX2 {
			level = SIMDAVX2
		}
	}
	return level
}

// SupportedSIMD reports the highest dispatch level this CPU (and build
// target) can execute, ignoring the FLOWGEN_SIMD override.
func SupportedSIMD() SIMD {
	if hasAVX2FMA() {
		return SIMDAVX2
	}
	return SIMDNone
}

// ActiveSIMD reports the dispatch level new packed operands are built
// for: hardware support clamped by the FLOWGEN_SIMD override (or by a
// prior SetSIMD call).
func ActiveSIMD() SIMD { return activeSIMD }

// SetSIMD overrides the active dispatch level (clamped to hardware
// support) and returns the previous one — for tests and benchmarks
// that compile both the scalar and vector pipelines in one process.
// Already-packed operands are unaffected: they keep the layout, and
// therefore the kernel, they were packed with. Not safe to call
// concurrently with packing.
func SetSIMD(s SIMD) SIMD {
	prev := activeSIMD
	if s > SupportedSIMD() {
		s = SupportedSIMD()
	}
	activeSIMD = s
	return prev
}

// CPUFeatures lists the detected vector features relevant to the
// kernels (e.g. "avx2,fma"), independent of any override — recorded in
// bench trajectories so points are comparable across machines.
func CPUFeatures() string { return cpuFeatureList() }
