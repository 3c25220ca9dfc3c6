// Command flowgen is the paper's tool: it takes a design and an
// objective and autonomously develops angel-flows (best QoR) and
// devil-flows (worst QoR) for it, with no human guidance or baseline
// flow.
//
// Usage:
//
//	flowgen -design alu16 -objective area -train 300 -pool 600 -out 20
//	flowgen -list
//	flowgen -design mont16 -objective delay -paper   # full paper scale
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flowgen/internal/aiger"
	"flowgen/internal/analysis"
	"flowgen/internal/blif"
	"flowgen/internal/circuits"
	"flowgen/internal/cliflags"
	"flowgen/internal/core"
	"flowgen/internal/flow"
	"flowgen/internal/rewrite"
	"flowgen/internal/serve"
	"flowgen/internal/synth"
	"flowgen/internal/techmap"
	"flowgen/internal/verilog"
)

func main() {
	var (
		designName = cliflags.Design(flag.CommandLine, "alu16", "design to optimize (see -list)")
		objective  = flag.String("objective", "area", "QoR objective: area, delay, or area+delay")
		m          = cliflags.M(flag.CommandLine, 4)
		trainN     = flag.Int("train", 300, "labeled training flows to collect")
		poolN      = flag.Int("pool", 600, "unlabeled sample flows to classify")
		outN       = flag.Int("out", 20, "angel/devil flows to emit")
		steps      = flag.Int("steps", 400, "CNN steps per retraining round")
		seed       = cliflags.Seed(flag.CommandLine, 1)
		optimizer  = flag.String("optimizer", "RMSProp", "SGD|Momentum|AdaGrad|RMSProp|Ftrl")
		memo       = cliflags.Memo(flag.CommandLine)
		paper      = flag.Bool("paper", false, "use the paper's full-scale parameters")
		verify     = flag.Bool("verify", false, "synthesize the generated flows and report accuracy")
		list       = flag.Bool("list", false, "list available designs and exit")
		analyze    = flag.Bool("analyze", false, "print angel-vs-devil flow structure analysis")
		saveModel  = flag.String("save-model", "", "write the trained classifier and its labeling definition to this path for flowserve")
		expBlif    = flag.String("export-blif", "", "write the input design as BLIF to this path")
		expAiger   = flag.String("export-aiger", "", "write the input design as binary AIGER to this path")
		expVerilog = flag.String("export-verilog", "", "apply the top angel-flow, map, and write gate-level Verilog here")
	)
	flag.Parse()

	if *list {
		for _, n := range circuits.Names() {
			d, _ := circuits.ByName(n)
			fmt.Printf("%-10s %s\n", n, d.Brief)
		}
		return
	}

	d, err := circuits.ByName(*designName)
	if err != nil {
		fatal(err)
	}
	space := flow.NewSpace(flow.DefaultAlphabet, *m)

	var cfg core.Config
	if *paper {
		cfg = core.PaperConfig(space)
	} else {
		cfg = core.DefaultConfig(space)
		cfg.TrainFlows = *trainN
		cfg.SampleFlows = *poolN
		cfg.NumOut = *outN
		cfg.StepsPerRound = *steps
		if cfg.InitialLabeled > cfg.TrainFlows {
			cfg.InitialLabeled = cfg.TrainFlows / 2
		}
	}
	cfg.Seed = *seed
	cfg.Optimizer = *optimizer
	switch *objective {
	case "area":
		cfg.Metrics = []synth.Metric{synth.MetricArea}
	case "delay":
		cfg.Metrics = []synth.Metric{synth.MetricDelay}
	case "area+delay":
		cfg.Metrics = []synth.Metric{synth.MetricArea, synth.MetricDelay}
	default:
		fatal(fmt.Errorf("unknown objective %q", *objective))
	}

	fmt.Printf("building %s...\n", *designName)
	design := d.Build()
	st := design.Stats()
	fmt.Printf("design: %s (search space %v flows)\n", st, space.Count())

	engine := synth.NewEngine(design, space)
	engine.Memo = *memo
	fw, err := core.New(cfg, engine)
	if err != nil {
		fatal(err)
	}
	res, err := fw.Run(func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		fatal(err)
	}

	printFlows := func(kind string, flows []core.ScoredFlow) {
		fmt.Printf("\n=== %s-flows (%d) ===\n", kind, len(flows))
		for i, f := range flows {
			fmt.Printf("%3d. conf=%.3f  %s\n", i+1, f.Confidence, f.Flow.String(space))
			if i >= 9 && len(flows) > 12 {
				fmt.Printf("     ... (%d more)\n", len(flows)-i-1)
				break
			}
		}
	}
	printFlows("angel", res.Angels)
	printFlows("devil", res.Devils)

	if *verify {
		fmt.Println("\nverifying generated flows against ground truth...")
		acc, err := fw.Accuracy(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("accuracy (paper §4.1 metric): %.3f\n", acc)
	}

	if *analyze {
		angels := make([]flow.Flow, len(res.Angels))
		for i, a := range res.Angels {
			angels[i] = a.Flow
		}
		devils := make([]flow.Flow, len(res.Devils))
		for i, d := range res.Devils {
			devils[i] = d.Flow
		}
		fmt.Println("\n=== flow structure analysis (angel vs devil) ===")
		for _, it := range analysis.Contrast(space, angels, devils) {
			fmt.Printf("%-12s angel mean pos %5.2f | devil mean pos %5.2f | shift %+5.2f\n",
				it.Name, it.MeanInA, it.MeanInB, it.Shift)
		}
		fmt.Println("common angel prefixes:")
		for _, p := range analysis.PrefixSignature(space, angels, 2, 3) {
			fmt.Println("  " + p)
		}
	}

	if *saveModel != "" {
		m := &serve.Model{Name: *designName, Space: space, Arch: cfg.Arch,
			Metrics: cfg.Metrics, Percentiles: cfg.Percentiles, Net: res.Net}
		if err := serve.SaveModel(*saveModel, m); err != nil {
			fatal(err)
		}
		fmt.Printf("trained classifier written to %s (serve it: flowserve -model %s)\n",
			*saveModel, *saveModel)
	}

	if *expBlif != "" {
		writeFile(*expBlif, func(f *os.File) error { return blif.Write(f, design, *designName) })
		fmt.Printf("BLIF written to %s\n", *expBlif)
	}
	if *expAiger != "" {
		writeFile(*expAiger, func(f *os.File) error { return aiger.WriteBinary(f, design) })
		fmt.Printf("AIGER written to %s\n", *expAiger)
	}
	if *expVerilog != "" {
		best := res.Angels[0]
		optimized, _, err := rewrite.Apply(design.Cleanup(), best.Flow.Names(space))
		if err != nil {
			fatal(err)
		}
		mode := techmap.DelayMode
		if cfg.Metrics[0] == synth.MetricArea {
			mode = techmap.AreaMode
		}
		q, nl := techmap.MapNetlist(optimized, engine.Matcher(), mode)
		writeFile(*expVerilog, func(f *os.File) error {
			return verilog.WriteNetlist(f, optimized, nl, *designName)
		})
		fmt.Printf("angel-flow netlist written to %s (%d gates, %.1f µm², %.1f ps)\n",
			*expVerilog, q.Gates, q.Area, q.Delay)
	}
}

func writeFile(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flowgen:", strings.TrimPrefix(err.Error(), "flowgen: "))
	os.Exit(1)
}
