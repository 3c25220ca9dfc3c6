// Ablation benchmarks for the framework's design choices (DESIGN.md §7):
// the contribution of the zero-cost transformation variants to the QoR
// spread, incremental retraining versus one-shot training, and the
// paper's skewed percentile determinators versus uniform classes.
package flowgen

import (
	"context"
	"fmt"
	"testing"

	"flowgen/internal/circuits"
	"flowgen/internal/core"
	"flowgen/internal/exp"
	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/stats"
	"flowgen/internal/synth"
)

// BenchmarkAblation_ZeroCostVariants measures what `rewrite -z` and
// `refactor -z` buy: the QoR spread and best-achieved area of random
// flows over the full alphabet versus the alphabet without the zero-cost
// variants (the paper includes them precisely because zero-gain
// perturbation unlocks later reductions).
func BenchmarkAblation_ZeroCostVariants(b *testing.B) {
	full := flow.DefaultAlphabet
	noZ := []string{"balance", "restructure", "rewrite", "refactor"}
	design, err := circuits.ByName("alu8")
	if err != nil {
		b.Fatal(err)
	}
	const flowsN = 80
	for i := 0; i < b.N; i++ {
		for _, tc := range []struct {
			name     string
			alphabet []string
		}{{"with-z", full}, {"without-z", noZ}} {
			space := flow.NewSpace(tc.alphabet, 2)
			engine := synth.NewEngine(design.Build(), space)
			fs := space.RandomUnique(newRand(31), flowsN)
			qors, err := engine.EvaluateAll(fs, nil)
			if err != nil {
				b.Fatal(err)
			}
			areas := exp.Metrics(qors, synth.MetricArea)
			s := stats.Summarize(areas)
			if i == 0 {
				fmt.Printf("Ablation[zero-cost] %-10s best %.1f mean %.1f spread %.1f%%\n",
					tc.name, s.Min, s.Mean, stats.SpreadPercent(areas))
			}
		}
	}
}

// BenchmarkAblation_IncrementalVsOneShot compares the paper's
// incremental protocol (retrain every K flows with refit determinators)
// against training once on the full labeled set with the same total step
// budget.
func BenchmarkAblation_IncrementalVsOneShot(b *testing.B) {
	bd := bundleFor(b, "ALU")
	final := func(cfg core.Config) exp.CurvePoint {
		curve, _, err := exp.RunIncremental(bd, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return curve[len(curve)-1]
	}
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultConfig(bd, synth.MetricArea)
		inc := final(cfg) // the framework's incremental protocol
		// One-shot: all data from the start, same step budget.
		cfg.InitialLabeled, cfg.RetrainEvery, cfg.StepsPerRound = len(bd.Flows), len(bd.Flows), inc.Steps
		one := final(cfg)
		if i == 0 {
			fmt.Printf("Ablation[incremental] incremental %.3f vs one-shot %.3f (total %d steps)\n",
				inc.GenAcc, one.GenAcc, inc.Steps)
		}
		b.ReportMetric(inc.GenAcc, "incremental-acc")
		b.ReportMetric(one.GenAcc, "oneshot-acc")
	}
}

// BenchmarkAblation_Determinators compares the paper's skewed percentile
// determinators {5,15,40,65,90,95} (small extreme classes) against
// uniform seven-class binning, measuring classifier training accuracy —
// the skew concentrates capacity on the classes the selection step uses.
func BenchmarkAblation_Determinators(b *testing.B) {
	bd := bundleFor(b, "ALU")
	uniform := []float64{14.3, 28.6, 42.9, 57.1, 71.4, 85.7}
	for i := 0; i < b.N; i++ {
		for _, tc := range []struct {
			name string
			pcts []float64
		}{{"paper {5,15,40,65,90,95}", label.DefaultPercentiles}, {"uniform", uniform}} {
			model, err := label.Fit(bd.QoRs, []synth.Metric{synth.MetricArea}, tc.pcts)
			if err != nil {
				b.Fatal(err)
			}
			cfg := exp.DefaultConfig(bd, synth.MetricArea)
			tr, err := core.NewTrainer(cfg)
			if err != nil {
				b.Fatal(err)
			}
			round := core.Round{Space: bd.Space, H: cfg.Arch.InH, W: cfg.Arch.InW, Steps: 600}
			rr, err := round.Run(context.Background(), tr, bd.Flows, bd.QoRs, model)
			if err != nil {
				b.Fatal(err)
			}
			extreme := model.Histogram(bd.PoolQoRs)
			if i == 0 {
				fmt.Printf("Ablation[determinators] %-26s train-acc %.3f pool classes %v\n",
					tc.name, rr.Acc, extreme)
			}
		}
	}
}
