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
	"flowgen/internal/nn"
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
		numOut     = flag.Int("out", 0, "flows to select (0 = pool/25)")
		seed       = cliflags.Seed(flag.CommandLine, 11)
		memo       = cliflags.Memo(flag.CommandLine)
		predW      = cliflags.Workers(flag.CommandLine, "predworkers", "pool-prediction workers (0 = GOMAXPROCS)")
		precision  = cliflags.Precision(flag.CommandLine)
	)
	flag.Parse()

	metric := synth.MetricArea
	if *metricName == "delay" {
		metric = synth.MetricDelay
	} else if *metricName != "area" {
		fatal(fmt.Errorf("unknown metric %q", *metricName))
	}

	d, err := circuits.ByName(*designName)
	if err != nil {
		fatal(err)
	}
	space := flow.NewSpace(flow.DefaultAlphabet, *m)
	fmt.Fprintf(os.Stderr, "collecting %d+%d flows on %s...\n", *trainN, *poolN, *designName)
	bundle, err := exp.CollectMode(d.Build(), space, *trainN, *poolN, *seed, *memo, func(done, total int) {
		if done%100 == 0 {
			fmt.Fprintf(os.Stderr, "  %d/%d\n", done, total)
		}
	})
	if err != nil {
		fatal(err)
	}
	if *memo {
		fmt.Fprintf(os.Stderr, "collected in %v: %d/%d transformations run (%.2fx work sharing)\n",
			bundle.SynthTime.Round(time.Millisecond), bundle.Memo.TransformsRun,
			bundle.Memo.DirectSteps, bundle.Memo.SpeedupFactor())
	} else {
		fmt.Fprintf(os.Stderr, "collected in %v (independent per-flow synthesis)\n",
			bundle.SynthTime.Round(time.Millisecond))
	}

	base := exp.DefaultRunConfig(space, metric)
	base.Precision = *precision
	base.StepsPerRound = *steps
	base.PredictWorkers = *predW
	if *numOut > 0 {
		base.NumOut = *numOut
	} else {
		base.NumOut = max(4, *poolN/25)
	}

	switch *expName {
	case "optimizers": // Figures 4 and 5
		for _, optName := range []string{"SGD", "Momentum", "AdaGrad", "RMSProp", "Ftrl"} {
			rc := base
			rc.Optimizer = optName
			if optName == "SGD" || optName == "Momentum" {
				rc.LearnRate = 1e-2
			}
			curve, _, _, err := exp.RunIncremental(bundle, rc)
			if err != nil {
				fatal(err)
			}
			fmt.Print(exp.FormatCurve(fmt.Sprintf("%s %s-driven %s", *designName, metric, optName), curve))
		}
	case "kernels": // Figure 6
		for _, k := range [][2]int{{3, 6}, {6, 6}, {6, 12}} {
			rc := base
			rc.Arch.KH, rc.Arch.KW = k[0], k[1]
			curve, _, _, err := exp.RunIncremental(bundle, rc)
			if err != nil {
				fatal(err)
			}
			fmt.Print(exp.FormatCurve(fmt.Sprintf("%s kernel %dx%d", *designName, k[0], k[1]), curve))
		}
	case "activations": // Figure 7
		for _, act := range nn.Activations {
			rc := base
			rc.Arch.Act = act
			curve, _, _, err := exp.RunIncremental(bundle, rc)
			if err != nil {
				fatal(err)
			}
			fmt.Print(exp.FormatCurve(fmt.Sprintf("%s activation %s", *designName, act), curve))
		}
	case "quality": // Figure 8
		rc := base
		_, net, model, err := exp.RunIncremental(bundle, rc)
		if err != nil {
			fatal(err)
		}
		sel := exp.SelectWithTruth(bundle, net, model, rc)
		pool := exp.Metrics(bundle.PoolQoRs, metric)
		fmt.Printf("# %s %s-driven quality (pool %d flows)\nseries,min,mean,max\n", *designName, metric, len(pool))
		row := func(name string, xs []float64) {
			s := stats.Summarize(xs)
			fmt.Printf("%s,%.2f,%.2f,%.2f\n", name, s.Min, s.Mean, s.Max)
		}
		row("pool", pool)
		row("angel", exp.Metrics(sel.AngelQoRs, metric))
		row("devil", exp.Metrics(sel.DevilQoRs, metric))
	default:
		fatal(fmt.Errorf("unknown experiment %q", *expName))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flowexp:", err)
	os.Exit(1)
}
