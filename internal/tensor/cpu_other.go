//go:build !amd64

package tensor

// hasAVX2FMA is always false off amd64: only the portable scalar
// kernels exist, so the process tier is always SIMDNone.
func hasAVX2FMA() bool { return false }

func cpuFeatureList() string { return "" }
