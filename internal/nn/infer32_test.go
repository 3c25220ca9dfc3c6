package nn

import (
	"math"
	"math/rand"
	"testing"

	"flowgen/internal/tensor"
)

// infer32TestArchs covers the layer-shape space: the CPU-scale default,
// a stride-1 multi-channel variant, and each non-default activation.
func infer32TestArchs() map[string]ArchConfig {
	fast := FastArch(7)
	fast.InH, fast.InW = 8, 9 // the EncodeShape of the default m=2 space

	stride1 := FastArch(5)
	stride1.InH, stride1.InW = 12, 12
	stride1.PoolStride = 1
	stride1.Filters = 12
	stride1.KH, stride1.KW = 6, 6
	stride1.LocalKH = 3

	tanh := FastArch(4)
	tanh.InH, tanh.InW = 12, 12
	tanh.Act = Tanh

	relu := FastArch(4)
	relu.InH, relu.InW = 12, 12
	relu.Act = ReLU

	return map[string]ArchConfig{"fast": fast, "stride1": stride1, "tanh": tanh, "relu": relu}
}

// oneHotBatch builds a batch of synthetic one-hot flow images (one 1
// per row of the pre-reshape L×n matrix, like real encodings).
func oneHotBatch(rng *rand.Rand, n, h, w int) *tensor.Tensor {
	x := tensor.New(n, 1, h, w)
	hw := h * w
	// Treat each image as 2·h rows of w/2... keep it simple: one 1 in
	// every run of 6 elements, mirroring the default alphabet width.
	for s := 0; s < n; s++ {
		for off := 0; off+6 <= hw; off += 6 {
			x.Data[s*hw+off+rng.Intn(6)] = 1
		}
	}
	return x
}

// infer32Tol is the documented f32-vs-f64 logits tolerance (DESIGN.md
// §3.5): the f32 engine accumulates a few thousand float32 rounding
// steps through the stack, so logits agree to ~1e-4 absolute on
// O(1)-scale logits.
const infer32Tol = 1e-3

// tieEps is the near-tie exemption for argmax comparisons: when the two
// top f64 logits are closer than this, either order is numerically
// legitimate and float32 rounding may pick the other one.
const tieEps = 1e-4

// logits64 runs the f64 network forward and returns raw logits.
func logits64(net *Network, x *tensor.Tensor) [][]float64 {
	out := net.Forward(x, false)
	n, c := out.Shape[0], out.Shape[1]
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = out.Data[i*c : (i+1)*c]
	}
	return rows
}

func top2Gap(xs []float64) float64 {
	best, second := math.Inf(-1), math.Inf(-1)
	for _, v := range xs {
		if v > best {
			best, second = v, best
		} else if v > second {
			second = v
		}
	}
	return best - second
}

// TestInferenceNetMatchesF64 is the kernel-level differential gate: for
// every test architecture, f32 logits sit within the documented
// tolerance of the f64 logits and the argmax agrees on every sample
// whose top-2 f64 logits are not numerically tied.
func TestInferenceNetMatchesF64(t *testing.T) {
	for name, arch := range infer32TestArchs() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			net := arch.Build(3)
			inet, err := NewInferenceNet(net, arch.InH, arch.InW)
			if err != nil {
				t.Fatal(err)
			}
			if inet.classes != arch.NumClasses {
				t.Fatalf("compiled %d classes, want %d", inet.classes, arch.NumClasses)
			}

			const n = 96
			x := oneHotBatch(rng, n, arch.InH, arch.InW)
			want := logits64(net, x)
			probs32 := predictAll(t, inet, x, 1)

			scratch := inet.NewScratch(predictChunk)
			for s0 := 0; s0 < n; s0 += predictChunk {
				hi := s0 + predictChunk
				if hi > n {
					hi = n
				}
				buf := scratch.in[:(hi-s0)*arch.InH*arch.InW]
				for i, v := range x.Data[s0*arch.InH*arch.InW : hi*arch.InH*arch.InW] {
					buf[i] = float32(v)
				}
				logits := inet.Forward32(buf, hi-s0, scratch)
				for s := s0; s < hi; s++ {
					row := logits[(s-s0)*inet.classes : (s-s0+1)*inet.classes]
					wi, gi := argmaxF64(want[s]), argmaxF32(row)
					if wi != gi && top2Gap(want[s]) > tieEps {
						t.Fatalf("sample %d: f32 argmax %d != f64 argmax %d (gap %g)",
							s, gi, wi, top2Gap(want[s]))
					}
					for j, v := range row {
						if d := math.Abs(float64(v) - want[s][j]); d > infer32Tol*math.Max(1, math.Abs(want[s][j])) {
							t.Fatalf("sample %d logit %d: f32 %v vs f64 %v (|Δ|=%g)", s, j, v, want[s][j], d)
						}
					}
					// PredictStream agrees with the raw forward
					// bit-for-bit.
					for j := range row {
						if probs32[s][j] != softmaxOf(row)[j] {
							t.Fatalf("sample %d: PredictStream probs diverge from Forward32 softmax", s)
						}
					}
					if a, b := argmaxF64(probs32[s]), argmaxF64(Softmax(want[s])); a != b && top2Gap(want[s]) > tieEps {
						t.Fatalf("sample %d: prob argmax f32 %d != f64 %d", s, a, b)
					}
				}
			}
		})
	}
}

func softmaxOf(row []float32) []float64 {
	l := make([]float64, len(row))
	for i, v := range row {
		l[i] = float64(v)
	}
	return Softmax(l)
}

func argmaxF64(xs []float64) int {
	bi := 0
	for i, v := range xs {
		if v > xs[bi] {
			bi = i
		}
	}
	return bi
}

func argmaxF32(xs []float32) int {
	bi := 0
	for i, v := range xs {
		if v > xs[bi] {
			bi = i
		}
	}
	return bi
}

// TestInferenceNetSnapshotIsolation: training the source network after
// compilation must not change the snapshot's predictions.
func TestInferenceNetSnapshotIsolation(t *testing.T) {
	arch := FastArch(3)
	arch.InH, arch.InW = 12, 12
	net := arch.Build(9)
	inet, err := NewInferenceNet(net, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	x := oneHotBatch(rand.New(rand.NewSource(4)), 8, 12, 12)
	before := predictAll(t, inet, x, 1)
	for _, p := range net.Params() {
		for i := range p.Data {
			p.Data[i] += 0.25
		}
	}
	after := predictAll(t, inet, x, 1)
	for s := range before {
		for j := range before[s] {
			if before[s][j] != after[s][j] {
				t.Fatal("snapshot predictions changed when the source network trained")
			}
		}
	}
	// A recompile sees the new weights.
	inet2, err := NewInferenceNet(net, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for s, row := range predictAll(t, inet2, x, 1) {
		for j := range row {
			if row[j] != before[s][j] {
				changed = true
			}
		}
		_ = s
	}
	if !changed {
		t.Fatal("recompiled snapshot ignored the weight update")
	}
}

// TestExp32Accuracy bounds the polynomial exp against math.Exp over the
// activation-relevant range: a few float32 ulps of relative error.
func TestExp32Accuracy(t *testing.T) {
	for x := float32(-30); x <= 30; x += 0.0137 {
		want := math.Exp(float64(x))
		got := float64(tensor.Exp32(x))
		if rel := math.Abs(got-want) / want; rel > 5e-7 {
			t.Fatalf("tensor.Exp32(%v) = %v, want %v (rel err %g)", x, got, want, rel)
		}
	}
	if tensor.Exp32(-100) != 0 {
		t.Fatal("underflow clamp")
	}
	if !math.IsInf(float64(tensor.Exp32(100)), 1) {
		t.Fatal("overflow clamp")
	}
	// Activation kernels against their f64 definitions.
	rng := rand.New(rand.NewSource(8))
	for _, act := range Activations {
		xs := make([]float32, 512)
		for i := range xs {
			xs[i] = float32(rng.NormFloat64() * 3)
		}
		ys := append([]float32(nil), xs...)
		apply32(act, ys)
		for i, x := range xs {
			want := act.Apply(float64(x))
			if d := math.Abs(float64(ys[i]) - want); d > 1e-5*math.Max(1, math.Abs(want)) {
				t.Fatalf("%s(%v): f32 %v vs f64 %v", act, x, ys[i], want)
			}
		}
	}
}
