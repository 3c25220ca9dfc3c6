package core

import (
	"math"
	"testing"

	"flowgen/internal/circuits"
	"flowgen/internal/flow"
	"flowgen/internal/nn"
	"flowgen/internal/tensor"
)

// TestSIMDDispatchDifferentialAcrossDesigns is the acceptance gate for
// the vector kernel tier (ISSUE 7): for every registered design, a
// seeded sample pool is scored once under the host's active SIMD level
// and once with dispatch forced to the scalar kernels (the same
// snapshots FLOWGEN_SIMD=off would build). The two f32 engines must
// agree within the f32-vs-f64 differential tolerance with no argmax
// flips beyond numerical ties (FMA rounds each accumulation step
// differently, so vector and scalar logits are close but not bitwise
// equal).
func TestSIMDDispatchDifferentialAcrossDesigns(t *testing.T) {
	if tensor.ActiveSIMD() == tensor.SIMDNone {
		t.Skip("no vector tier active on this host (or FLOWGEN_SIMD=off); nothing to differentiate")
	}
	poolN := 200
	if testing.Short() {
		poolN = 80
	}
	space := flow.NewSpace(flow.DefaultAlphabet, 2)
	cfg := DefaultConfig(space)
	cfg.SampleFlows = poolN

	for di, name := range circuits.Names() {
		t.Run(name, func(t *testing.T) {
			seed := int64(300 + di)
			cfgD := cfg
			cfgD.Seed = seed
			fw, err := New(cfgD, nil)
			if err != nil {
				t.Fatal(err)
			}
			net := cfg.Arch.Build(seed)
			pool := space.RandomUnique(fw.rng, poolN)

			// Vector-tier predictions: snapshots compiled while the host
			// level is active.
			vec32 := PredictPool(net, nn.F32, space, pool, cfg.EncodeH, cfg.EncodeW, 0)

			// Scalar predictions: force dispatch off so the packed
			// snapshot PredictPool compiles gets the scalar layouts,
			// then restore.
			prev := tensor.SetSIMD(tensor.SIMDNone)
			defer tensor.SetSIMD(prev)
			sca32 := PredictPool(net, nn.F32, space, pool, cfg.EncodeH, cfg.EncodeW, 0)
			tensor.SetSIMD(prev)

			for i := range pool {
				// Bounded drift, argmax stable outside ties.
				if vec32[i].Class != sca32[i].Class {
					if best, second := top2(sca32[i].Probs); best-second > tieEps {
						t.Fatalf("flow %d: f32 argmax %d (vector) != %d (scalar) beyond the tie tolerance",
							i, vec32[i].Class, sca32[i].Class)
					}
				}
				for j := range sca32[i].Probs {
					if d := math.Abs(vec32[i].Probs[j] - sca32[i].Probs[j]); d > probTol {
						t.Fatalf("flow %d class %d: f32 vector prob %v vs scalar %v (|Δ|=%g > %g)",
							i, j, vec32[i].Probs[j], sca32[i].Probs[j], d, probTol)
					}
				}
			}
		})
	}
}
