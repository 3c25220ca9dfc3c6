package nn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"flowgen/internal/tensor"
)

func TestActivationValues(t *testing.T) {
	cases := []struct {
		a    Activation
		x    float64
		want float64
	}{
		{ReLU, -1, 0}, {ReLU, 2, 2},
		{ReLU6, 7, 6}, {ReLU6, 3, 3},
		{ELU, 0, 0}, {ELU, -100, -1 + math.Exp(-100)},
		{SELU, 1, seluLambda},
		{Softsign, 1, 0.5}, {Softsign, -1, -0.5},
		{Sigmoid, 0, 0.5},
		{Tanh, 0, 0},
	}
	for _, c := range cases {
		if got := c.a.Apply(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("%s(%v) = %v, want %v", c.a, c.x, got, c.want)
		}
	}
}

func TestActivationDerivativesNumerically(t *testing.T) {
	const h = 1e-6
	rng := rand.New(rand.NewSource(1))
	for _, a := range Activations {
		for trial := 0; trial < 100; trial++ {
			x := rng.NormFloat64() * 3
			// Avoid the kinks of the piecewise-linear functions.
			if (a == ReLU || a == ReLU6 || a == ELU || a == SELU) && math.Abs(x) < 1e-3 {
				continue
			}
			if a == ReLU6 && math.Abs(x-6) < 1e-3 {
				continue
			}
			num := (a.Apply(x+h) - a.Apply(x-h)) / (2 * h)
			ana := a.Deriv(x)
			if math.Abs(num-ana) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("%s'(%v): numeric %v, analytic %v", a, x, num, ana)
			}
		}
	}
}

func TestActivationByName(t *testing.T) {
	for _, a := range Activations {
		got, err := ActivationByName(a.String())
		if err != nil || got != a {
			t.Fatalf("round trip %s", a)
		}
	}
	if _, err := ActivationByName("Swish"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSmoothTaxonomy(t *testing.T) {
	if ReLU.Smooth() || ReLU6.Smooth() {
		t.Fatal("ReLU family must not be smooth")
	}
	for _, a := range []Activation{SELU, Tanh, ELU, Softsign, Sigmoid, Softplus} {
		if !a.Smooth() {
			t.Fatalf("%s should be smooth", a)
		}
	}
}

func TestSoftmaxAndCE(t *testing.T) {
	p := Softmax([]float64{1, 1, 1})
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("uniform softmax: %v", p)
		}
	}
	// Large logits must not overflow.
	p = Softmax([]float64{1000, 0})
	if math.Abs(p[0]-1) > 1e-9 {
		t.Fatalf("stable softmax: %v", p)
	}
	loss, grad := SparseSoftmaxCE([]float64{0, 0}, 0)
	if math.Abs(loss-math.Ln2) > 1e-9 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
	if math.Abs(grad[0]+0.5) > 1e-9 || math.Abs(grad[1]-0.5) > 1e-9 {
		t.Fatalf("grad = %v", grad)
	}
}

// buildTinyNet creates a network exercising every layer type (except
// dropout, which is stochastic) on a 6x6 input.
func buildTinyNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	n := &Network{}
	n.Layers = append(n.Layers,
		NewConv2D(rng, 1, 2, 3, 3),
		NewActLayer(Tanh),
		NewMaxPool2D(2, 2, 2),                        // 6x6 -> 3x3
		NewLocallyConnected2D(rng, 2, 3, 3, 2, 2, 2), // -> 2x2x2
		NewActLayer(SELU),
		&Flatten{},
		NewDense(rng, 8, 5),
		NewActLayer(Sigmoid),
		NewDense(rng, 5, 3),
	)
	return n
}

// TestGradientCheck verifies analytic parameter gradients against central
// differences through the full layer stack (batch of 1).
func TestGradientCheck(t *testing.T) {
	net := buildTinyNet(42)
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(1, 1, 6, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	label := 1

	lossAt := func() float64 {
		logits := net.Forward(x, false)
		l, _ := SparseSoftmaxCE(logits.Data, label)
		return l
	}

	net.ZeroGrads()
	logits := net.Forward(x, false)
	_, grad := SparseSoftmaxCE(logits.Data, label)
	net.Backward(tensor.FromSlice(grad, 1, len(grad)))

	const h = 1e-6
	checked := 0
	for pi, p := range net.Params() {
		stride := len(p.Data)/7 + 1 // sample a few weights per block
		for i := 0; i < len(p.Data); i += stride {
			orig := p.Data[i]
			p.Data[i] = orig + h
			lp := lossAt()
			p.Data[i] = orig - h
			lm := lossAt()
			p.Data[i] = orig
			num := (lp - lm) / (2 * h)
			ana := p.Grad[i]
			if math.Abs(num-ana) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("param block %d index %d: numeric %v, analytic %v", pi, i, num, ana)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d gradients checked", checked)
	}
}

// TestGradientCheckInput verifies the gradient w.r.t. the input too.
func TestGradientCheckInput(t *testing.T) {
	net := buildTinyNet(43)
	rng := rand.New(rand.NewSource(8))
	x := tensor.New(1, 1, 6, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	label := 2
	net.ZeroGrads()
	logits := net.Forward(x, false)
	_, grad := SparseSoftmaxCE(logits.Data, label)
	dx := grad
	g := tensor.FromSlice(dx, 1, len(dx))
	var inGrad *tensor.Tensor
	// Manually propagate to capture the input gradient.
	gg := g
	for i := len(net.Layers) - 1; i >= 0; i-- {
		gg = net.Layers[i].Backward(gg)
	}
	inGrad = gg
	const h = 1e-6
	for i := 0; i < x.Size(); i += 5 {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp, _ := SparseSoftmaxCE(net.Forward(x, false).Data, label)
		x.Data[i] = orig - h
		lm, _ := SparseSoftmaxCE(net.Forward(x, false).Data, label)
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-inGrad.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("input grad %d: numeric %v, analytic %v", i, num, inGrad.Data[i])
		}
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDropout(rng, 0.5)
	x := tensor.New(1000)
	x.Fill(1)
	// Eval mode: identity.
	out := d.Forward(x, false)
	for _, v := range out.Data {
		if v != 1 {
			t.Fatal("dropout must be identity at inference")
		}
	}
	// Train mode: ~half dropped, survivors scaled by 2.
	out = d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropped %d of 1000 at rate 0.5", zeros)
	}
	_ = twos
	// Backward uses the same mask.
	g := tensor.New(1000)
	g.Fill(1)
	back := d.Backward(g)
	for i, v := range back.Data {
		if (out.Data[i] == 0) != (v == 0) {
			t.Fatal("backward mask mismatch")
		}
	}
}

func TestArchShapes(t *testing.T) {
	for _, cfg := range []ArchConfig{FastArch(7), PaperArch(7)} {
		if cfg.Filters > 50 && testing.Short() {
			continue
		}
		net := cfg.Build(1)
		x := tensor.New(1, 1, cfg.InH, cfg.InW)
		out := net.Forward(x, false)
		if out.Size() != 7 {
			t.Fatalf("logits size %d, want 7", out.Size())
		}
		probs := net.Predict(x)
		sum := 0.0
		for _, p := range probs {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
		if net.NumParams() == 0 {
			t.Fatal("no parameters")
		}
	}
}

func TestArchDeterministicInit(t *testing.T) {
	a := FastArch(7).Build(5)
	b := FastArch(7).Build(5)
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Data {
			if pa[i].Data[j] != pb[i].Data[j] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
}

func BenchmarkForwardFastArch(b *testing.B) {
	net := FastArch(7).Build(1)
	x := tensor.New(1, 1, 12, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Forward(x, false)
	}
}

// TestSaveLoadWeightsRoundTrip proves weight persistence through the
// batched network: a whole batch predicted before saving must match the
// same batch predicted by a differently seeded network after loading.
func TestSaveLoadWeightsRoundTrip(t *testing.T) {
	net := FastArch(7).Build(21)
	const batch = 6
	x := tensor.New(batch, 1, 12, 12)
	rng := rand.New(rand.NewSource(5))
	for i := range x.Data {
		x.Data[i] = float64(float32(rng.Float64()))
	}
	predict := func(n *Network) [][]float64 { return probs64(n, x) }
	before := predict(net)

	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	// A differently seeded network predicts differently until loaded.
	other := FastArch(7).Build(99)
	differs := false
	for i, p := range predict(other)[0] {
		if math.Abs(p-before[0][i]) > 1e-9 {
			differs = true
		}
	}
	if !differs {
		t.Fatal("test premise broken: different seeds predict identically")
	}
	if err := other.LoadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	after := predict(other)
	for s := 0; s < batch; s++ {
		for i := range before[s] {
			if math.Abs(before[s][i]-after[s][i]) > 1e-12 {
				t.Fatalf("sample %d prediction changed after load: %v vs %v", s, before[s], after[s])
			}
		}
	}
	// The single-sample convenience path agrees with the batched one.
	single := other.Predict(x.SampleView(0))
	for i := range single {
		if math.Abs(single[i]-after[0][i]) > 1e-12 {
			t.Fatalf("Predict disagrees with the batched forward: %v vs %v", single, after[0])
		}
	}
}

// TestLocallyConnectedRejectsOtherInputSize: the untied weights fix the
// layer's input size, so a 24×6 image through a stack built for 12×12
// (a 6×1 map where the layer expects 3×3) panics instead of gathering
// patches across row boundaries.
func TestLocallyConnectedRejectsOtherInputSize(t *testing.T) {
	net := FastArch(7).Build(1)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "built for 3x3 input, got 6x1") {
			t.Fatalf("want the locally connected layer's shape panic, got %v", r)
		}
	}()
	net.Forward(tensor.New(2, 1, 24, 6), false)
}

func TestLoadWeightsShapeMismatch(t *testing.T) {
	net := FastArch(7).Build(1)
	var buf bytes.Buffer
	if err := net.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	smaller := FastArch(3).Build(1)
	if err := smaller.LoadWeights(&buf); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

// TestActLayerDerivativeFromForward checks that ActLayer, which computes
// each derivative in Forward beside the output, outputs Apply(x) and
// back-propagates g·Deriv(x) bit for bit, for all eight activations,
// across the kinks and the branch points of Softplus.
func TestActLayerDerivativeFromForward(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, 6, 30, 31, -30, -745, 710, math.Inf(1), math.Inf(-1)}
	for len(xs) < 400 {
		xs = append(xs, rng.NormFloat64()*4)
	}
	x := tensor.FromSlice(xs, 4, len(xs)/4)
	g := tensor.New(x.Shape...)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	for _, a := range Activations {
		l := NewActLayer(a)
		y := l.Forward(x, true)
		dx := l.Backward(g)
		for i, v := range xs {
			if math.Float64bits(y.Data[i]) != math.Float64bits(a.Apply(v)) {
				t.Fatalf("%s(%v): Forward %v, Apply %v", a, v, y.Data[i], a.Apply(v))
			}
			if want := g.Data[i] * a.Deriv(v); math.Float64bits(dx.Data[i]) != math.Float64bits(want) {
				t.Fatalf("%s'(%v): Backward %v, g·Deriv %v", a, v, dx.Data[i], want)
			}
		}
	}
}

// TestNetworkBackwardMatchesLayerLoop checks that Network.Backward, which
// skips the first convolution's input gradient, accumulates the parameter
// gradients that calling every layer's Backward in turn does, bit for
// bit, after one training-mode Forward of FastArch and of PaperArch.
func TestNetworkBackwardMatchesLayerLoop(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ArchConfig
		n    int
	}{{"FastArch", FastArch(7), 12}, {"PaperArch", PaperArch(7), 1}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "PaperArch" && testing.Short() {
				t.Skip("paper-scale backward is seconds of GEMM work")
			}
			net := tc.cfg.Build(5)
			if _, ok := net.Layers[0].(*Conv2D); !ok {
				t.Fatalf("first layer is %s, want a convolution", net.Layers[0].Name())
			}
			x := randBatch(6, tc.n, tc.cfg.InH, tc.cfg.InW)
			labels := make([]int, tc.n)
			for i := range labels {
				labels[i] = i % tc.cfg.NumClasses
			}
			_, grad := SparseSoftmaxCEBatch(net.Forward(x, true), labels)
			net.ZeroGrads()
			net.Backward(grad)
			var want [][]float64
			for _, p := range net.Params() {
				want = append(want, append([]float64(nil), p.Grad...))
			}
			net.ZeroGrads()
			gg := grad
			for i := len(net.Layers) - 1; i >= 0; i-- {
				gg = net.Layers[i].Backward(gg)
			}
			for bi, p := range net.Params() {
				for i, v := range p.Grad {
					if math.Float64bits(v) != math.Float64bits(want[bi][i]) {
						t.Fatalf("param block %d index %d: layer loop %v, Network.Backward %v", bi, i, v, want[bi][i])
					}
				}
			}
		})
	}
}
