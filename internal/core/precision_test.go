package core

import (
	"math"
	"testing"

	"flowgen/internal/circuits"
	"flowgen/internal/flow"
	"flowgen/internal/nn"
)

// probTol is the documented f32-vs-f64 agreement tolerance on softmax
// probabilities (DESIGN.md §3.5): softmax contracts the ~1e-4 relative
// logit drift of the f32 engine, so probabilities agree to 5e-4
// absolute.
const probTol = 5e-4

// tieEps exempts numerically tied samples from the argmax-identity
// requirement: when the top-2 f64 probabilities are closer than this,
// float32 rounding may legitimately order them the other way.
const tieEps = 1e-4

func top2(xs []float64) (best, second float64) {
	best, second = math.Inf(-1), math.Inf(-1)
	for _, v := range xs {
		if v > best {
			best, second = v, best
		} else if v > second {
			second = v
		}
	}
	return
}

// TestPrecisionDifferentialAcrossDesigns is the serving gate for the
// f32 fast path: for every registered design, a seeded sample pool is
// scored through both engines and the f32 path must (a) agree with the
// f64 argmax on 100% of non-tied pool flows and (b) keep every class
// probability within probTol. Each design gets its own network seed so
// the gate sweeps distinct weight draws, not one lucky initialization.
// The f32 engine runs the process's kernel tier, so this pins the AVX2
// tier on an AVX2 host and the scalar tier on a non-amd64 build.
func TestPrecisionDifferentialAcrossDesigns(t *testing.T) {
	poolN := 400
	if testing.Short() {
		poolN = 120
	}
	space := flow.NewSpace(flow.DefaultAlphabet, 2)
	cfg := DefaultConfig(space)
	cfg.SampleFlows = poolN

	for di, name := range circuits.Names() {
		t.Run(name, func(t *testing.T) {
			seed := int64(100 + di)
			cfgD := cfg
			cfgD.Seed = seed
			fw, err := New(cfgD, nil)
			if err != nil {
				t.Fatal(err)
			}
			net := cfg.Arch.Build(seed)
			pool := space.RandomUnique(fw.rng, poolN)

			got32 := PredictPool(net, nn.F32, space, pool, cfg.EncodeH, cfg.EncodeW, 0)
			got64 := PredictPool(net, nn.F64, space, pool, cfg.EncodeH, cfg.EncodeW, 0)

			ties, mismatches := 0, 0
			for i := range pool {
				p32, p64 := got32[i], got64[i]
				if p32.Class != p64.Class {
					if best, second := top2(p64.Probs); best-second <= tieEps {
						ties++
						continue
					}
					mismatches++
					continue
				}
				for j := range p64.Probs {
					if d := math.Abs(p32.Probs[j] - p64.Probs[j]); d > probTol {
						t.Fatalf("flow %d class %d: f32 prob %v vs f64 %v (|Δ|=%g > %g)",
							i, j, p32.Probs[j], p64.Probs[j], d, probTol)
					}
				}
			}
			if mismatches > 0 {
				t.Fatalf("%d/%d pool flows changed argmax beyond the tie tolerance", mismatches, poolN)
			}
			if ties > poolN/50 {
				t.Fatalf("%d/%d pool flows landed on numerical ties — the engines have drifted apart", ties, poolN)
			}
		})
	}
}

// TestPrecisionDifferentialPaperArch runs the same gate through the
// paper-scale architecture (200 filters, 6×12 kernels, stride-1
// pooling) on a reduced pool — the multi-channel packed GEMM path at
// its real K=14400 contraction depth. Skipped in -short runs.
func TestPrecisionDifferentialPaperArch(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale forward passes are multi-second; covered by the FastArch sweep in -short")
	}
	space := flow.PaperSpace()
	cfg := DefaultConfig(space)
	cfg.Arch = nn.PaperArch(len(cfg.Percentiles) + 1)
	cfg.Arch.InH, cfg.Arch.InW = cfg.EncodeH, cfg.EncodeW
	const poolN = 24
	cfg.SampleFlows = poolN
	net := cfg.Arch.Build(7)
	fw, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := space.RandomUnique(fw.rng, poolN)

	got32 := PredictPool(net, nn.F32, space, pool, cfg.EncodeH, cfg.EncodeW, 0)
	got64 := PredictPool(net, nn.F64, space, pool, cfg.EncodeH, cfg.EncodeW, 0)
	for i := range pool {
		if got32[i].Class != got64[i].Class {
			if best, second := top2(got64[i].Probs); best-second > tieEps {
				t.Fatalf("flow %d: paper-arch argmax %d (f32) vs %d (f64)", i, got32[i].Class, got64[i].Class)
			}
		}
		for j := range got64[i].Probs {
			if d := math.Abs(got32[i].Probs[j] - got64[i].Probs[j]); d > probTol {
				t.Fatalf("flow %d class %d: paper-arch |Δprob|=%g > %g", i, j, d, probTol)
			}
		}
	}
}
