// Command qor-distro regenerates the Figure 1 data: the area/delay QoR
// distribution of random m-repetition synthesis flows on a design. It
// prints summary statistics, an ASCII preview, and (optionally) the 2-D
// histogram as CSV for plotting.
//
//	qor-distro -design alu8 -flows 500 -csv alu8.csv
package main

import (
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"flowgen/internal/circuits"
	"flowgen/internal/cliflags"
	"flowgen/internal/exp"
	"flowgen/internal/flow"
	"flowgen/internal/lutmap"
	"flowgen/internal/stats"
	"flowgen/internal/synth"
)

func main() {
	var (
		designName = cliflags.Design(flag.CommandLine, "alu8", "design to synthesize")
		flows      = flag.Int("flows", 500, "number of unique random flows (paper: 50000)")
		m          = cliflags.M(flag.CommandLine, 4)
		seed       = cliflags.Seed(flag.CommandLine, 1)
		bins       = flag.Int("bins", 20, "histogram bins per axis")
		csvPath    = flag.String("csv", "", "write the 2-D histogram CSV here")
		lutK       = flag.Int("lut", 0, "also report k-LUT mapping QoR of the raw design (0 = off)")
		memo       = cliflags.Memo(flag.CommandLine)
		all        = flag.Bool("all", false, "exhaustively synthesize the entire flow space instead of sampling (small spaces only, e.g. -m 1)")
	)
	flag.Parse()

	d, err := circuits.ByName(*designName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	design := d.Build()
	fmt.Printf("design %s: %v\n", *designName, design.Stats())
	if *lutK > 0 {
		q, _, err := lutmap.Map(design, *lutK, lutmap.DepthMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("FPGA backend: %d %d-LUTs, depth %d\n", q.LUTs, *lutK, q.Depth)
	}

	space := flow.NewSpace(flow.DefaultAlphabet, *m)
	fmt.Printf("flow space: n=%d m=%d L=%d, %v available flows\n",
		space.N(), space.M, space.Length(), space.Count())

	engine := synth.NewEngine(design, space)
	engine.Memo = *memo
	var sample []flow.Flow
	if *all {
		// Exhaustive ground truth: the batch is the whole space, which is
		// the prefix-memoized engine's best case (every prefix and most
		// final graphs are shared).
		if space.Count().Cmp(big.NewInt(100000)) > 0 {
			fmt.Fprintf(os.Stderr, "-all needs a small space; %v flows is too many (try -m 1)\n", space.Count())
			os.Exit(1)
		}
		sample = space.Enumerate(0)
		fmt.Printf("exhaustive mode: synthesizing all %d flows of the space\n", len(sample))
	} else {
		if !space.Holds(*flows) {
			fmt.Fprintf(os.Stderr, "-flows %d exceeds the space's %v flows\n", *flows, space.Count())
			os.Exit(1)
		}
		rng := rand.New(rand.NewSource(*seed))
		sample = space.RandomUnique(rng, *flows)
	}
	var lastDecile atomic.Int64 // progress is invoked concurrently from worker goroutines
	start := time.Now()
	qors, err := engine.EvaluateAll(sample, func(n int) {
		d := int64(n * 10 / len(sample))
		for {
			cur := lastDecile.Load()
			if d <= cur {
				return
			}
			if lastDecile.CompareAndSwap(cur, d) {
				fmt.Printf("  %d0%%\n", d)
				return
			}
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wall := time.Since(start)
	if *memo {
		st := engine.MemoStats()
		fmt.Printf("synthesized %d flows in %v: %d/%d transformations run, %d mappings (of %d flows), %.2fx work sharing\n",
			len(sample), wall.Round(time.Millisecond), st.TransformsRun, st.DirectSteps, st.MapCalls, st.Flows, st.SpeedupFactor())
	} else {
		fmt.Printf("synthesized %d flows in %v (independent per-flow synthesis)\n", len(sample), wall.Round(time.Millisecond))
	}

	areas := exp.Metrics(qors, synth.MetricArea)
	delays := exp.Metrics(qors, synth.MetricDelay)
	sa, sd := stats.Summarize(areas), stats.Summarize(delays)
	fmt.Printf("\narea:  min %.1f  mean %.1f  max %.1f µm²  (spread %.1f%%)\n",
		sa.Min, sa.Mean, sa.Max, stats.SpreadPercent(areas))
	fmt.Printf("delay: min %.1f  mean %.1f  max %.1f ps   (spread %.1f%%)\n",
		sd.Min, sd.Mean, sd.Max, stats.SpreadPercent(delays))
	fmt.Printf("area-delay correlation: %.3f\n", stats.Pearson(areas, delays))

	h := stats.NewHist2D(areas, delays, *bins, *bins/2)
	fmt.Printf("\n2-D QoR distribution (x: area, y: delay):\n%s", h.ASCII())

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(h.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("histogram written to %s\n", *csvPath)
	}
}
