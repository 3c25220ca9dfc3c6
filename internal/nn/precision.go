package nn

import "fmt"

// Precision selects which numeric engine scores a network at inference
// time. Training and gradients always run float64 — classification only
// needs argmax-stable logits, so the default inference path is the
// packed float32 engine (InferenceNet), with float64 as the opt-out for
// exact parity with training numerics and as the differential oracle
// the f32 engine is tested against.
type Precision int

const (
	// F32 (the zero value, and the inference default) routes prediction
	// through the packed, cache-blocked float32 engine.
	F32 Precision = iota
	// F64 routes prediction through the full-precision float64 network —
	// the same numerics the training path uses.
	F64
)

func (p Precision) String() string {
	switch p {
	case F32:
		return "f32"
	case F64:
		return "f64"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ParsePrecision resolves a -precision flag value.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f32", "float32", "32":
		return F32, nil
	case "f64", "float64", "64":
		return F64, nil
	}
	return 0, fmt.Errorf("nn: unknown precision %q (want f32 or f64)", s)
}
