package nn

import (
	"math"

	"flowgen/internal/tensor"
)

// Float32 activation kernels for the inference engine. The float64
// training path calls math.Exp and friends; at inference scale the
// activation layer is a double-digit share of per-sample cost (a
// FastArch sample runs ~750 pointwise activations against ~30k GEMM
// madds), so the f32 path uses tensor.Exp32's polynomial instead.

// apply32 evaluates the activation over xs in place.
func apply32(a Activation, xs []float32) {
	switch a {
	case ReLU:
		for i, x := range xs {
			if x < 0 {
				xs[i] = 0
			}
		}
	case ReLU6:
		for i, x := range xs {
			if x < 0 {
				xs[i] = 0
			} else if x > 6 {
				xs[i] = 6
			}
		}
	case ELU:
		for i, x := range xs {
			if x < 0 {
				xs[i] = tensor.Exp32(x) - 1
			}
		}
	case SELU:
		// SELU is the default architecture's activation and the largest
		// non-GEMM cost at pool-prediction scale, so it lives in tensor
		// with an AVX2 kernel that is bit-identical to the scalar core.
		tensor.SELU32(xs, float32(seluLambda), float32(seluAlpha*seluLambda))
	case Softplus:
		for i, x := range xs {
			if x > 30 {
				continue // log(1+e^x) ≈ x
			}
			xs[i] = float32(math.Log1p(float64(tensor.Exp32(x))))
		}
	case Softsign:
		for i, x := range xs {
			if x < 0 {
				xs[i] = x / (1 - x)
			} else {
				xs[i] = x / (1 + x)
			}
		}
	case Sigmoid:
		for i, x := range xs {
			xs[i] = 1 / (1 + tensor.Exp32(-x))
		}
	case Tanh:
		for i, x := range xs {
			switch {
			case x > 9:
				xs[i] = 1
			case x < -9:
				xs[i] = -1
			default:
				e := tensor.Exp32(2 * x)
				xs[i] = (e - 1) / (e + 1)
			}
		}
	default:
		panic("nn: invalid activation")
	}
}
