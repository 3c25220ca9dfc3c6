package train

import (
	"math"
	"math/rand"
	"testing"

	"flowgen/internal/nn"
	"flowgen/internal/opt"
	"flowgen/internal/tensor"
)

// accuracy64 is the f64 reference accuracy: the argmax of each sample's
// softmaxed Network.Forward logits against its label.
func accuracy64(net *nn.Network, d *Dataset) float64 {
	hw := d.H * d.W
	x := tensor.New(d.Len(), 1, d.H, d.W)
	for i, row := range d.X {
		copy(x.Data[i*hw:(i+1)*hw], row)
	}
	logits := net.Forward(x, false)
	c := logits.Shape[1]
	correct := 0
	for i, y := range d.Y {
		if Argmax(nn.Softmax(logits.Data[i*c:(i+1)*c])) == y {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}

// accuracy32 evaluates d through the packed f32 engine.
func accuracy32(t *testing.T, net *nn.Network, d *Dataset) float64 {
	t.Helper()
	inet, err := nn.NewInferenceNet(net, d.H, d.W)
	if err != nil {
		t.Fatal(err)
	}
	return AccuracyPredictor(inet, d, 0)
}

// syntheticSet builds a linearly separable image problem: class = which
// half (top/bottom) holds more mass, with a margin.
func syntheticSet(rng *rand.Rand, n int) *Dataset {
	d := &Dataset{H: 6, W: 6, NumCl: 2}
	for i := 0; i < n; i++ {
		x := make([]float64, 36)
		label := rng.Intn(2)
		for j := range x {
			base := 0.1
			if (j < 18) == (label == 0) {
				base = 0.9
			}
			x[j] = base + rng.Float64()*0.05
		}
		d.Add(x, label)
	}
	return d
}

func tinyNet(seed int64, classes int) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	n := &nn.Network{}
	n.Layers = append(n.Layers,
		nn.NewConv2D(rng, 1, 4, 3, 3),
		nn.NewActLayer(nn.Tanh),
		nn.NewMaxPool2D(2, 2, 2),
		&nn.Flatten{},
		nn.NewDense(rng, 4*3*3, classes),
	)
	return n
}

func TestTrainerLearnsSeparableProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := syntheticSet(rng, 200)
	net := tinyNet(2, 2)
	o, _ := opt.ByName("RMSProp", 1e-3)
	tr := NewTrainer(net, o, 3)
	tr.SetData(data)
	if _, err := tr.Steps(400); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy64(net, data); acc < 0.95 {
		t.Fatalf("accuracy %.3f after training, want >= 0.95", acc)
	}
}

func TestTrainerLossDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := syntheticSet(rng, 100)
	net := tinyNet(5, 2)
	o, _ := opt.ByName("SGD", 1e-2)
	tr := NewTrainer(net, o, 6)
	tr.SetData(data)
	first, err := tr.Steps(20)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 10; i++ {
		last, _ = tr.Steps(20)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestTrainerNoData(t *testing.T) {
	net := tinyNet(1, 2)
	o, _ := opt.ByName("SGD", 0.1)
	tr := NewTrainer(net, o, 1)
	if _, err := tr.Step(); err == nil {
		t.Fatal("expected error without data")
	}
}

func TestSetDataResetsEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := syntheticSet(rng, 20)
	net := tinyNet(7, 2)
	o, _ := opt.ByName("SGD", 1e-3)
	tr := NewTrainer(net, o, 8)
	tr.SetData(data)
	if _, err := tr.Steps(10); err != nil {
		t.Fatal(err)
	}
	// Growing the dataset mid-training must be accepted (incremental
	// framework behavior).
	grown := data.Clone()
	for i := 0; i < 10; i++ {
		grown.Add(data.X[i], data.Y[i])
	}
	tr.SetData(grown)
	if _, err := tr.Steps(10); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSizeLargerThanData(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := syntheticSet(rng, 3)
	net := tinyNet(9, 2)
	o, _ := opt.ByName("SGD", 1e-3)
	tr := NewTrainer(net, o, 10)
	tr.BatchSize = 5
	tr.SetData(data)
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{0.1, 0.7, 0.2}) != 1 {
		t.Fatal("argmax")
	}
	if Argmax([]float64{3}) != 0 {
		t.Fatal("singleton argmax")
	}
}

func TestShuffleKeepsPairs(t *testing.T) {
	d := &Dataset{H: 1, W: 2, NumCl: 2}
	for i := 0; i < 50; i++ {
		d.Add([]float64{float64(i), float64(i)}, i%2)
	}
	rng := rand.New(rand.NewSource(10))
	d.Shuffle(rng)
	for i := range d.X {
		if d.X[i][0] != d.X[i][1] {
			t.Fatal("shuffle broke sample integrity")
		}
		if int(d.X[i][0])%2 != d.Y[i] {
			t.Fatal("shuffle broke label pairing")
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	run := func() float64 {
		rng := rand.New(rand.NewSource(11))
		data := syntheticSet(rng, 50)
		net := tinyNet(12, 2)
		o, _ := opt.ByName("Momentum", 1e-3)
		tr := NewTrainer(net, o, 13)
		tr.SetData(data)
		loss, _ := tr.Steps(50)
		return loss
	}
	if run() != run() {
		t.Fatal("training is not deterministic under fixed seeds")
	}
}

// oneHotSet builds a binary separable problem shaped like the real
// workload (one 1 per 6-wide row, everything else exactly 0 — the form
// flow encodings take): the label is which half of the image holds the
// majority of the set positions, with ties broken toward class 0.
func oneHotSet(rng *rand.Rand, n int) *Dataset {
	d := &Dataset{H: 6, W: 6, NumCl: 2}
	for i := 0; i < n; i++ {
		x := make([]float64, 36)
		left := 0
		for row := 0; row < 6; row++ {
			col := rng.Intn(6)
			x[row*6+col] = 1
			if col < 3 {
				left++
			}
		}
		label := 0
		if left < 3 {
			label = 1
		}
		d.Add(x, label)
	}
	return d
}

// TestAccuracyPrecF32Parity is the accuracy-parity gate for the packed
// f32 engine: evaluated at f32, a trained classifier's accuracy must sit
// within 0.5pp of the f64 reference (Network.Forward) on the same
// dataset. Inputs are
// exactly 0/1 (lossless in float32), so any gap comes from float32
// rounding of weights and activations alone.
func TestAccuracyPrecF32Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	data := oneHotSet(rng, 400)
	net := tinyNet(22, 2)
	o, _ := opt.ByName("RMSProp", 1e-3)
	tr := NewTrainer(net, o, 8)
	tr.SetData(data)
	if _, err := tr.Steps(2000); err != nil {
		t.Fatal(err)
	}
	acc64 := accuracy64(net, data)
	acc32 := accuracy32(t, net, data)
	if acc64 < 0.9 {
		t.Fatalf("f64 accuracy %.3f — net did not train, parity check meaningless", acc64)
	}
	if d := math.Abs(acc32 - acc64); d > 0.005 {
		t.Fatalf("f32 accuracy %.4f vs f64 %.4f: gap %.4f > 0.5pp", acc32, acc64, d)
	}
	t.Logf("accuracy f64 %.4f | f32 %.4f", acc64, acc32)
}
