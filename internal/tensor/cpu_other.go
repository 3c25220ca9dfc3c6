//go:build !amd64

package tensor

// hasAVX2FMA is always false off amd64: only the portable scalar
// kernels exist, and PackB32SIMD clamps every request down to them.
func hasAVX2FMA() bool { return false }

func cpuFeatureList() string { return "" }
