package nn

import (
	"math"
	"math/rand"
	"testing"

	"flowgen/internal/tensor"
)

// diffNets builds two identically initialized networks so batched and
// per-sample execution can run with independent retained state.
func diffNets(cfg ArchConfig, seed int64) (*Network, *Network) {
	return cfg.Build(seed), cfg.Build(seed)
}

// randBatch fills an N×1×H×W batch with deterministic noise, rounded
// through float32 so a Source streams it to either engine exactly.
func randBatch(seed int64, n, h, w int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, 1, h, w)
	for i := range x.Data {
		x.Data[i] = float64(float32(rng.NormFloat64()))
	}
	return x
}

// runDifferential checks that one batched forward/backward pass over n
// samples matches n single-sample passes: identical argmax, logits and
// accumulated parameter/input gradients within tol, and f64
// PredictStream probabilities equal to per-sample Predict.
func runDifferential(t *testing.T, cfg ArchConfig, n int, seed int64) {
	t.Helper()
	const tol = 1e-9
	batched, single := diffNets(cfg, seed)
	x := randBatch(seed+1, n, cfg.InH, cfg.InW)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % cfg.NumClasses
	}

	// Batched pass.
	batched.ZeroGrads()
	logitsB := batched.Forward(x, false)
	_, gradB := SparseSoftmaxCEBatch(logitsB, labels)
	batched.Backward(gradB)

	// Per-sample passes accumulating into the same gradient blocks.
	single.ZeroGrads()
	c := logitsB.Shape[1]
	for s := 0; s < n; s++ {
		xs := x.BatchView(s, s+1)
		logitsS := single.Forward(xs, false)
		_, gradS := SparseSoftmaxCE(logitsS.Data, labels[s])
		single.Backward(tensor.FromSlice(gradS, 1, len(gradS)))

		rowB := logitsB.Data[s*c : (s+1)*c]
		if argmax(rowB) != argmax(logitsS.Data) {
			t.Fatalf("sample %d: batched argmax %d != single argmax %d",
				s, argmax(rowB), argmax(logitsS.Data))
		}
		for j := range rowB {
			if math.Abs(rowB[j]-logitsS.Data[j]) > tol {
				t.Fatalf("sample %d logit %d: batched %v, single %v",
					s, j, rowB[j], logitsS.Data[j])
			}
		}
	}

	// Accumulated parameter gradients of the summed batch must agree.
	pb, ps := batched.Params(), single.Params()
	for bi := range pb {
		for i := range pb[bi].Grad {
			gB, gS := pb[bi].Grad[i], ps[bi].Grad[i]
			if math.Abs(gB-gS) > tol*(1+math.Abs(gS)) {
				t.Fatalf("param block %d index %d: batched grad %v, single grad %v",
					bi, i, gB, gS)
			}
		}
	}

	// Parallel prediction equals per-sample Predict (per-sample numerics
	// are independent of batching and sharding).
	probsB := predictAll(t, mustPredictor(t, batched, F64, cfg.InH, cfg.InW), x, 3)
	for s := 0; s < n; s++ {
		probsS := single.Predict(x.SampleView(s))
		for j := range probsS {
			if math.Abs(probsB[s][j]-probsS[j]) > tol {
				t.Fatalf("sample %d prob %d: PredictStream %v, Predict %v",
					s, j, probsB[s][j], probsS[j])
			}
		}
		if argmax(probsB[s]) != argmax(probsS) {
			t.Fatalf("sample %d: PredictStream argmax != Predict argmax", s)
		}
	}
}

// argmax returns the index of the largest element (test-local helper).
func argmax(xs []float64) int {
	best, bi := xs[0], 0
	for i, v := range xs[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// TestBatchedMatchesSingleFastArch runs the differential over the full
// FastArch layer stack (conv, pool, locally connected, dense, SELU).
func TestBatchedMatchesSingleFastArch(t *testing.T) {
	runDifferential(t, FastArch(7), 7, 101)
}

// TestBatchedMatchesSinglePaperArch runs the differential over the
// paper-scale architecture (200 filters, 6×12 kernels, pool stride 1).
func TestBatchedMatchesSinglePaperArch(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale differential is minutes of GEMM work")
	}
	runDifferential(t, PaperArch(7), 2, 202)
}

// TestBatchedMatchesSinglePerLayer exercises every layer type in
// isolation, including the activations not used by the arch configs.
func TestBatchedMatchesSinglePerLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	build := func(seed int64) *Network {
		r := rand.New(rand.NewSource(seed))
		return &Network{Layers: []Layer{
			NewConv2D(r, 1, 3, 2, 4), // even kernel: asymmetric padding
			NewActLayer(ReLU6),
			NewMaxPool2D(2, 2, 1), // stride 1 pooling (paper setting)
			NewConv2D(r, 3, 2, 3, 3),
			NewActLayer(Softplus),
			NewMaxPool2D(2, 2, 2),
			NewLocallyConnected2D(r, 2, 2, 2, 3, 2, 2),
			NewActLayer(Softsign),
			&Flatten{},
			NewDense(r, 3, 6),
			NewActLayer(ELU),
			NewDense(r, 6, 4),
		}}
	}
	const n, tol = 5, 1e-9
	batched, single := build(77), build(77)
	x := tensor.New(n, 1, 6, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := []int{0, 1, 2, 3, 1}

	batched.ZeroGrads()
	logitsB := batched.Forward(x, false)
	_, gradB := SparseSoftmaxCEBatch(logitsB, labels)
	batched.Backward(gradB)

	single.ZeroGrads()
	for s := 0; s < n; s++ {
		logitsS := single.Forward(x.BatchView(s, s+1), false)
		for j := range logitsS.Data {
			if math.Abs(logitsS.Data[j]-logitsB.Data[s*4+j]) > tol {
				t.Fatalf("sample %d logit %d diverges", s, j)
			}
		}
		_, gradS := SparseSoftmaxCE(logitsS.Data, labels[s])
		single.Backward(tensor.FromSlice(gradS, 1, len(gradS)))
	}
	pb, ps := batched.Params(), single.Params()
	for bi := range pb {
		for i := range pb[bi].Grad {
			if math.Abs(pb[bi].Grad[i]-ps[bi].Grad[i]) > tol*(1+math.Abs(ps[bi].Grad[i])) {
				t.Fatalf("param block %d index %d gradient diverges", bi, i)
			}
		}
	}
}

// TestConvBackwardBlockedPartial exercises the blocked backward path
// with a block size that does not divide the batch: the 8×8 feature
// map makes backwardBlockSamples yield 2 (one block reaches the
// 128-column target), so the 5-sample batch splits into blocks of
// 2+2+1. The input gradient must be bit-identical to per-sample
// backward passes and the weight gradient within fp-reordering noise.
func TestConvBackwardBlockedPartial(t *testing.T) {
	const inC, outC, kh, kw, h, w, n = 8, 4, 5, 5, 8, 8, 5
	k := inC * kh * kw
	hw := h * w
	if bs := backwardBlockSamples(k, hw, n); bs != 2 {
		t.Fatalf("test geometry: backwardBlockSamples = %d, want 2", bs)
	}
	rng := rand.New(rand.NewSource(5))
	blocked := NewConv2D(rng, inC, outC, kh, kw)
	single := &Conv2D{InC: inC, OutC: outC, KH: kh, KW: kw,
		W: newParam(len(blocked.W.Data)), B: newParam(len(blocked.B.Data))}
	copy(single.W.Data, blocked.W.Data)
	copy(single.B.Data, blocked.B.Data)

	x := tensor.New(n, inC, h, w)
	grad := tensor.New(n, outC, h, w)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range grad.Data {
		grad.Data[i] = rng.NormFloat64()
	}

	blocked.Forward(x, false)
	dxB := blocked.Backward(grad)
	dxS := tensor.New(n, inC, h, w)
	for s := 0; s < n; s++ {
		xs := x.BatchView(s, s+1)
		single.Forward(xs, false)
		dx := single.Backward(grad.BatchView(s, s+1))
		copy(dxS.Data[s*inC*hw:(s+1)*inC*hw], dx.Data)
	}

	for i := range dxB.Data {
		if dxB.Data[i] != dxS.Data[i] {
			t.Fatalf("input gradient %d: blocked %v != per-sample %v", i, dxB.Data[i], dxS.Data[i])
		}
	}
	for i := range blocked.B.Grad {
		if blocked.B.Grad[i] != single.B.Grad[i] {
			t.Fatalf("bias gradient %d: blocked %v != per-sample %v", i, blocked.B.Grad[i], single.B.Grad[i])
		}
	}
	const tol = 1e-9
	for i := range blocked.W.Grad {
		gB, gS := blocked.W.Grad[i], single.W.Grad[i]
		if math.Abs(gB-gS) > tol*(1+math.Abs(gS)) {
			t.Fatalf("weight gradient %d: blocked %v, per-sample %v", i, gB, gS)
		}
	}
}

// TestDropoutBatchMask checks the batched dropout mask: inference is the
// identity for the whole batch, training masks per element with the
// inverted-dropout scale, and backward reuses the same mask.
func TestDropoutBatchMask(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDropout(rng, 0.4)
	x := tensor.New(8, 50)
	x.Fill(1)
	if out := d.Forward(x, false); out != x {
		t.Fatal("inference dropout must pass the batch through")
	}
	out := d.Forward(x, true)
	scale := 1 / (1 - 0.4)
	kept := 0
	for _, v := range out.Data {
		if v != 0 {
			if math.Abs(v-scale) > 1e-12 {
				t.Fatalf("survivor scaled to %v, want %v", v, scale)
			}
			kept++
		}
	}
	if kept < 150 || kept > 330 {
		t.Fatalf("kept %d of 400 at rate 0.4", kept)
	}
	g := tensor.New(8, 50)
	g.Fill(1)
	back := d.Backward(g)
	for i := range back.Data {
		if (out.Data[i] == 0) != (back.Data[i] == 0) {
			t.Fatal("backward mask mismatch")
		}
	}
}
