// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index and
// EXPERIMENTS.md for recorded results). Each benchmark prints the series
// the corresponding figure plots.
//
// Synthesis dominates runtime, so ground-truth QoR bundles are collected
// once per design and shared across benchmarks. Scale knobs (defaults
// sized for a single-core CI box; the paper's scale is reachable):
//
//	FLOWGEN_BENCH_TRAIN  labeled training flows per design (default 300)
//	FLOWGEN_BENCH_POOL   ground-truth sample-pool flows     (default 300)
//	FLOWGEN_BENCH_M      flow repetitions m                 (default 2; paper: 4)
//	FLOWGEN_BENCH_FIG1   random flows for the Fig.1 distros (default 200)
package flowgen

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"flowgen/internal/circuits"
	"flowgen/internal/exp"
	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/stats"
	"flowgen/internal/synth"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

var (
	benchTrain = envInt("FLOWGEN_BENCH_TRAIN", 300)
	benchPool  = envInt("FLOWGEN_BENCH_POOL", 300)
	benchM     = envInt("FLOWGEN_BENCH_M", 2)
	benchFig1  = envInt("FLOWGEN_BENCH_FIG1", 200)
)

// benchDesigns maps the paper's designs to their bench-scale stand-ins.
var benchDesigns = map[string]string{
	"Montgomery": "mont8",
	"AES":        "miniaes2",
	"ALU":        "alu8",
}

var (
	bundleMu    sync.Mutex
	bundleCache = map[string]*exp.Bundle{}
)

// bundleFor lazily collects the shared ground-truth bundle of a design.
func bundleFor(b *testing.B, paperName string) *exp.Bundle {
	b.Helper()
	bundleMu.Lock()
	defer bundleMu.Unlock()
	key := paperName
	if bd, ok := bundleCache[key]; ok {
		return bd
	}
	d, err := circuits.ByName(benchDesigns[paperName])
	if err != nil {
		b.Fatal(err)
	}
	space := flow.NewSpace(flow.DefaultAlphabet, benchM)
	bd, err := exp.Collect(d.Build(), space, benchTrain, benchPool, 11, nil)
	if err != nil {
		b.Fatal(err)
	}
	bundleCache[key] = bd
	return bd
}

// ---------------------------------------------------------------- Fig. 1

// fig1 evaluates random flows on a design and prints the QoR
// distribution statistics and 2-D histogram of Figure 1, checking the
// paper's motivating observations (large area/delay spread).
func fig1(b *testing.B, paperName string) {
	d, err := circuits.ByName(benchDesigns[paperName])
	if err != nil {
		b.Fatal(err)
	}
	space := flow.NewSpace(flow.DefaultAlphabet, 4) // the motivating example uses m=4
	engine := synth.NewEngine(d.Build(), space)
	for i := 0; i < b.N; i++ {
		rngFlows := space.RandomUnique(newRand(21), benchFig1)
		qors, err := engine.EvaluateAll(rngFlows, nil)
		if err != nil {
			b.Fatal(err)
		}
		areas := exp.Metrics(qors, synth.MetricArea)
		delays := exp.Metrics(qors, synth.MetricDelay)
		if i == 0 {
			h := stats.NewHist2D(areas, delays, 16, 10)
			fmt.Printf("\nFig1[%s -> %s] %d flows: area spread %.1f%%, delay spread %.1f%%\n",
				paperName, benchDesigns[paperName], len(qors),
				stats.SpreadPercent(areas), stats.SpreadPercent(delays))
			fmt.Printf("area [%.0f, %.0f] µm²; delay [%.0f, %.0f] ps\n%s",
				stats.Summarize(areas).Min, stats.Summarize(areas).Max,
				stats.Summarize(delays).Min, stats.Summarize(delays).Max, h.ASCII())
		}
		if sp := stats.SpreadPercent(areas); sp < 3 {
			b.Fatalf("area spread %.1f%% — distribution collapsed", sp)
		}
		b.ReportMetric(stats.SpreadPercent(areas), "area-spread-%")
		b.ReportMetric(stats.SpreadPercent(delays), "delay-spread-%")
	}
}

// BenchmarkFig1_AES_QoRDistribution regenerates Figure 1 (a, b).
func BenchmarkFig1_AES_QoRDistribution(b *testing.B) { fig1(b, "AES") }

// BenchmarkFig1_ALU_QoRDistribution regenerates Figure 1 (c, d).
func BenchmarkFig1_ALU_QoRDistribution(b *testing.B) { fig1(b, "ALU") }

// ------------------------------------------------------------ Figs. 4–7

// figSweep replays one of exp's Figure 4–7 sweeps of the harness's
// default run on each design's bundle and prints, per variant, the line
// that line makes of its final curve point.
func figSweep(b *testing.B, designs []string, metric synth.Metric, variants []exp.Variant,
	line func(design string, r exp.Run, final exp.CurvePoint) string) {
	for i := 0; i < b.N; i++ {
		for _, design := range designs {
			bd := bundleFor(b, design)
			runs, err := exp.Sweep(bd, exp.DefaultConfig(bd, metric), variants)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range runs {
				if i == 0 {
					fmt.Println(line(design, r, r.Curve[len(r.Curve)-1]))
				}
			}
		}
	}
}

// figOptimizers replays incremental training with each of the five
// gradient-descent algorithms on every design: Figure 4 (area-driven)
// or Figure 5 (delay-driven).
func figOptimizers(b *testing.B, metric synth.Metric, figName string) {
	figSweep(b, []string{"Montgomery", "AES", "ALU"}, metric, exp.Optimizers, func(d string, r exp.Run, f exp.CurvePoint) string {
		return fmt.Sprintf("%s[%s] %-8s final gen-acc %.3f train-acc %.3f (%.0fs simulated)",
			figName, d, r.Name, f.GenAcc, f.TrainAcc, f.SimTime.Seconds())
	})
}

// BenchmarkFig4_Optimizers_Area regenerates Figure 4 (a–c).
func BenchmarkFig4_Optimizers_Area(b *testing.B) { figOptimizers(b, synth.MetricArea, "Fig4") }

// BenchmarkFig5_Optimizers_Delay regenerates Figure 5 (a–c).
func BenchmarkFig5_Optimizers_Delay(b *testing.B) { figOptimizers(b, synth.MetricDelay, "Fig5") }

// BenchmarkFig6_KernelSize compares the paper's convolution kernel
// shapes (3×6, 6×6, 6×12) on delay-driven AES flows.
func BenchmarkFig6_KernelSize(b *testing.B) {
	figSweep(b, []string{"AES"}, synth.MetricDelay, exp.Kernels, func(_ string, r exp.Run, f exp.CurvePoint) string {
		return fmt.Sprintf("Fig6[AES] kernel %-4s final gen-acc %.3f train-acc %.3f", r.Name, f.GenAcc, f.TrainAcc)
	})
}

// BenchmarkFig7_Activations compares the eight activation functions on
// delay-driven AES flows, marking the smooth nonlinearities apart from
// the ReLU family.
func BenchmarkFig7_Activations(b *testing.B) {
	figSweep(b, []string{"AES"}, synth.MetricDelay, exp.Activations, func(_ string, r exp.Run, f exp.CurvePoint) string {
		return fmt.Sprintf("Fig7[AES] %-8s (smooth=%-5v) final gen-acc %.3f train-acc %.3f",
			r.Name, r.Config.Arch.Act.Smooth(), f.GenAcc, f.TrainAcc)
	})
}

// ---------------------------------------------------------------- Fig. 8

// fig8 runs the full pipeline on one design and prints where the
// generated angel- and devil-flows land in the sample-pool QoR
// distribution, for both objectives (the four point families of Fig. 8).
func fig8(b *testing.B, paperName string) {
	bd := bundleFor(b, paperName)
	for i := 0; i < b.N; i++ {
		for _, metric := range []synth.Metric{synth.MetricArea, synth.MetricDelay} {
			_, q, err := exp.RunIncremental(bd, exp.DefaultConfig(bd, metric))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fmt.Printf("Fig8[%s] %s-driven: angel mean %.0f | pool mean %.0f (p5 %.0f, p95 %.0f) | devil mean %.0f\n",
					paperName, metric, q.Angel.Mean, q.Pool.Mean, q.PoolP5, q.PoolP95, q.Devil.Mean)
			}
			if q.Angel.Mean >= q.Devil.Mean {
				b.Fatalf("%s %s: angel mean %.1f not better than devil mean %.1f",
					paperName, metric, q.Angel.Mean, q.Devil.Mean)
			}
			b.ReportMetric(q.Devil.Mean/q.Angel.Mean, metric.String()+"-devil/angel")
		}
	}
}

// BenchmarkFig8_FlowQuality_Mont regenerates Figure 8 (a).
func BenchmarkFig8_FlowQuality_Mont(b *testing.B) { fig8(b, "Montgomery") }

// BenchmarkFig8_FlowQuality_AES regenerates Figure 8 (b).
func BenchmarkFig8_FlowQuality_AES(b *testing.B) { fig8(b, "AES") }

// BenchmarkFig8_FlowQuality_ALU regenerates Figure 8 (c).
func BenchmarkFig8_FlowQuality_ALU(b *testing.B) { fig8(b, "ALU") }

// --------------------------------------------------------------- Tables

// BenchmarkTable1_Labeling measures the Table 1 labeling model:
// percentile fit plus batch classification.
func BenchmarkTable1_Labeling(b *testing.B) {
	qors := make([]synth.QoR, 10000)
	for i := range qors {
		qors[i] = synth.QoR{Area: float64(i%997) + 1, Delay: float64(i%89) + 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := label.FitSingle(qors, synth.MetricArea)
		if err != nil {
			b.Fatal(err)
		}
		_ = m.Histogram(qors)
	}
}

// BenchmarkRemark3_SearchSpaceCounting measures the Remark 3 recursion
// f(6, 24, 4) (the paper's >10^15 search-space size).
func BenchmarkRemark3_SearchSpaceCounting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = flow.CountLimitedRepetition(6, 24, 4)
	}
}
