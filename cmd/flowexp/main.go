// Command flowexp drives the paper's evaluation experiments (Figures
// 4–8) and emits CSV series. Ground-truth QoRs are collected once and
// reused across the compared configurations, mirroring how the paper's
// runtime is dominated by dataset collection.
//
//	flowexp -exp optimizers -design alu8 -metric area -train 300 -pool 300
//	flowexp -exp kernels    -design miniaes2 -metric delay
//	flowexp -exp activations -design miniaes2 -metric delay
//	flowexp -exp quality    -design mont8 -metric area
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"flowgen/internal/circuits"
	"flowgen/internal/cliflags"
	"flowgen/internal/exp"
	"flowgen/internal/flow"
	"flowgen/internal/stats"
	"flowgen/internal/synth"
)

func main() {
	var (
		expName    = flag.String("exp", "optimizers", "optimizers|kernels|activations|quality")
		designName = cliflags.Design(flag.CommandLine, "alu8", "design under test")
		metricName = flag.String("metric", "area", "area|delay")
		m          = cliflags.M(flag.CommandLine, 2)
		trainN     = flag.Int("train", 300, "training flows (paper: 10000)")
		poolN      = flag.Int("pool", 300, "sample pool flows (paper: 100000)")
		steps      = flag.Int("steps", 300, "CNN steps per retraining round")
		numOut     = flag.Int("out", 0, "flows to select (0 = the harness default for the pool size)")
		seed       = cliflags.Seed(flag.CommandLine, 11)
	)
	flag.Parse()

	metric, err := synth.ParseMetric(*metricName)
	if err != nil {
		fatal(err)
	}
	// Each curve is titled "<design> <label> <variant>".
	var variants []exp.Variant
	var label string
	switch *expName {
	case "optimizers": // Figures 4 and 5
		variants, label = exp.Optimizers, metric.String()+"-driven"
	case "kernels": // Figure 6
		variants, label = exp.Kernels, "kernel"
	case "activations": // Figure 7
		variants, label = exp.Activations, "activation"
	case "quality": // Figure 8
	default:
		fatal(fmt.Errorf("unknown experiment %q", *expName))
	}

	d, err := circuits.ByName(*designName)
	if err != nil {
		fatal(err)
	}
	space := flow.NewSpace(flow.DefaultAlphabet, *m)
	fmt.Fprintf(os.Stderr, "collecting %d+%d flows on %s...\n", *trainN, *poolN, *designName)
	bundle, err := exp.Collect(d.Build(), space, *trainN, *poolN, *seed, func(done, total int) {
		if done%100 == 0 {
			fmt.Fprintf(os.Stderr, "  %d/%d\n", done, total)
		}
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "collected in %v: %d/%d transformations run (%.2fx work sharing)\n",
		bundle.SynthTime.Round(time.Millisecond), bundle.Memo.TransformsRun,
		bundle.Memo.DirectSteps, bundle.Memo.SpeedupFactor())

	cfg := exp.DefaultConfig(bundle, metric)
	cfg.StepsPerRound = *steps
	if *numOut > 0 {
		cfg.NumOut = *numOut
	}

	if variants == nil {
		_, q, err := exp.RunIncremental(bundle, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# %s %s-driven quality (pool %d flows)\nseries,min,mean,max\n", *designName, metric, q.Pool.N)
		row := func(series string, s stats.Summary) { fmt.Printf("%s,%.2f,%.2f,%.2f\n", series, s.Min, s.Mean, s.Max) }
		row("pool", q.Pool)
		row("angel", q.Angel)
		row("devil", q.Devil)
		return
	}
	runs, err := exp.Sweep(bundle, cfg, variants)
	if err != nil {
		fatal(err)
	}
	for _, r := range runs {
		fmt.Print(exp.FormatCurve(fmt.Sprintf("%s %s %s", *designName, label, r.Name), r.Curve))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flowexp:", err)
	os.Exit(1)
}
