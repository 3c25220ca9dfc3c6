package nn

import (
	"fmt"
	"math"
)

// Activation is a pointwise nonlinearity with its derivative expressed in
// terms of the input x (and, where cheaper, the output y).
type Activation int

// The eight activation functions compared in Figure 7 of the paper.
const (
	ReLU Activation = iota
	ReLU6
	ELU
	SELU
	Softplus
	Softsign
	Sigmoid
	Tanh
)

// Activations lists all supported activations in the paper's Figure 7
// order.
var Activations = []Activation{ReLU, ReLU6, ELU, SELU, Softplus, Softsign, Sigmoid, Tanh}

// selu constants from Klambauer et al. (self-normalizing networks).
const (
	seluAlpha  = 1.6732632423543772
	seluLambda = 1.0507009873554805
)

func (a Activation) String() string {
	switch a {
	case ReLU:
		return "ReLU"
	case ReLU6:
		return "ReLU6"
	case ELU:
		return "ELU"
	case SELU:
		return "SELU"
	case Softplus:
		return "Softplus"
	case Softsign:
		return "Softsign"
	case Sigmoid:
		return "Sigmoid"
	case Tanh:
		return "Tanh"
	}
	return fmt.Sprintf("Activation(%d)", int(a))
}

// ActivationByName resolves an activation from its display name.
func ActivationByName(name string) (Activation, error) {
	for _, a := range Activations {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("nn: unknown activation %q", name)
}

// Apply evaluates the activation at x.
func (a Activation) Apply(x float64) float64 {
	switch a {
	case ReLU:
		return math.Max(0, x)
	case ReLU6:
		return math.Min(math.Max(0, x), 6)
	case ELU:
		if x >= 0 {
			return x
		}
		return math.Exp(x) - 1
	case SELU:
		if x >= 0 {
			return seluLambda * x
		}
		return seluLambda * seluAlpha * (math.Exp(x) - 1)
	case Softplus:
		// Numerically stable log(1+e^x).
		if x > 30 {
			return x
		}
		return math.Log1p(math.Exp(x))
	case Softsign:
		return x / (1 + math.Abs(x))
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	}
	panic("nn: invalid activation")
}

// Deriv evaluates d/dx of the activation at input x.
func (a Activation) Deriv(x float64) float64 {
	switch a {
	case ReLU:
		if x > 0 {
			return 1
		}
		return 0
	case ReLU6:
		if x > 0 && x < 6 {
			return 1
		}
		return 0
	case ELU:
		if x >= 0 {
			return 1
		}
		return math.Exp(x)
	case SELU:
		if x >= 0 {
			return seluLambda
		}
		return seluLambda * seluAlpha * math.Exp(x)
	case Softplus:
		return 1 / (1 + math.Exp(-x))
	case Softsign:
		d := 1 + math.Abs(x)
		return 1 / (d * d)
	case Sigmoid:
		s := 1 / (1 + math.Exp(-x))
		return s * (1 - s)
	case Tanh:
		th := math.Tanh(x)
		return 1 - th*th
	}
	panic("nn: invalid activation")
}

// eval returns Apply(x) and Deriv(x), bit for bit, computed together:
// ELU and SELU take their output and derivative from one math.Exp, and
// Sigmoid, Tanh and Softsign share their common term.
func (a Activation) eval(x float64) (y, d float64) {
	switch a {
	case ELU:
		if x >= 0 {
			return x, 1
		}
		e := math.Exp(x)
		return e - 1, e
	case SELU:
		if x >= 0 {
			return seluLambda * x, seluLambda
		}
		e := math.Exp(x)
		return seluLambda * seluAlpha * (e - 1), seluLambda * seluAlpha * e
	case Softsign:
		d := 1 + math.Abs(x)
		return x / d, 1 / (d * d)
	case Sigmoid:
		s := 1 / (1 + math.Exp(-x))
		return s, s * (1 - s)
	case Tanh:
		th := math.Tanh(x)
		return th, 1 - th*th
	}
	return a.Apply(x), a.Deriv(x)
}

// Smooth reports whether the activation is a smooth nonlinearity in the
// paper's Section 3.2.2 taxonomy (the class observed to classify flows
// better).
func (a Activation) Smooth() bool {
	switch a {
	case ELU, SELU, Softplus, Softsign, Sigmoid, Tanh:
		return true
	}
	return false
}
