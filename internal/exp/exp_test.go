package exp

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flowgen/internal/circuits"
	"flowgen/internal/core"
	"flowgen/internal/flow"
	"flowgen/internal/synth"
)

func tinyBundle(t *testing.T) *Bundle {
	t.Helper()
	space := flow.NewSpace(flow.DefaultAlphabet, 1)
	b, err := Collect(circuits.ALU(8), space, 40, 60, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCollectShapes(t *testing.T) {
	b := tinyBundle(t)
	if len(b.Flows) != 40 || len(b.QoRs) != 40 {
		t.Fatalf("train sizes %d/%d", len(b.Flows), len(b.QoRs))
	}
	if len(b.Pool) != 60 || len(b.PoolQoRs) != 60 {
		t.Fatalf("pool sizes %d/%d", len(b.Pool), len(b.PoolQoRs))
	}
	if b.PerFlowAvg <= 0 {
		t.Fatal("per-flow time not measured")
	}
	// Train and pool must be disjoint.
	seen := map[string]bool{}
	for _, f := range b.Flows {
		seen[f.Key()] = true
	}
	for _, f := range b.Pool {
		if seen[f.Key()] {
			t.Fatal("pool overlaps train")
		}
	}
	// The m=1 space holds 720 flows; both sets must be non-empty.
	for _, n := range [][2]int{{200, 600}, {0, 60}, {40, 0}} {
		if _, err := Collect(circuits.ALU(8), b.Space, n[0], n[1], 1, nil); err == nil {
			t.Errorf("collecting %d training + %d pool flows succeeded", n[0], n[1])
		}
	}
}

func TestRunIncrementalCurve(t *testing.T) {
	b := tinyBundle(t)
	cfg := DefaultConfig(b, synth.MetricArea)
	cfg.InitialLabeled = 20
	cfg.RetrainEvery = 10
	cfg.StepsPerRound = 30
	cfg.NumOut = 5
	curve, q, err := RunIncremental(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 { // 20, 30, 40
		t.Fatalf("curve length %d, want 3", len(curve))
	}
	if q.Pool.N != len(b.Pool) || q.Angel.N != cfg.NumOut || q.Devil.N != cfg.NumOut {
		t.Fatalf("quality sizes pool %d, angels %d, devils %d", q.Pool.N, q.Angel.N, q.Devil.N)
	}
	for i, p := range curve {
		if p.GenAcc < 0 || p.GenAcc > 1 || p.TrainAcc < 0 || p.TrainAcc > 1 {
			t.Fatalf("point %d out of range: %+v", i, p)
		}
		if i > 0 && p.SimTime <= curve[i-1].SimTime {
			t.Fatal("sim time must increase")
		}
		if i > 0 && p.Labeled <= curve[i-1].Labeled {
			t.Fatal("labeled must increase")
		}
	}
}

// TestRunIncrementalMatchesFrameworkRun: replaying the framework's own
// configuration over a pre-collected bundle trains exactly what the
// framework trains while it labels, round for round and bit for bit.
func TestRunIncrementalMatchesFrameworkRun(t *testing.T) {
	const seed = 4
	space := flow.NewSpace(flow.DefaultAlphabet, 1)
	cfg := core.DefaultConfig(space)
	cfg.TrainFlows, cfg.InitialLabeled, cfg.RetrainEvery = 40, 20, 10
	cfg.StepsPerRound, cfg.SampleFlows, cfg.NumOut, cfg.Seed = 30, 20, 5, seed
	fw, err := core.New(cfg, synth.NewEngine(circuits.ALU(8), space))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fw.Run(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Collect draws its training flows first from a generator seeded
	// like the framework's, so they are the 40 flows Run labeled.
	b, err := Collect(circuits.ALU(8), space, cfg.TrainFlows, 20, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunIncremental(b, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want.Rounds) {
		t.Fatalf("replay ran %d rounds, Run %d", len(got), len(want.Rounds))
	}
	for i, w := range want.Rounds {
		g := got[i]
		if g.Labeled != w.Labeled || g.Steps != w.Steps || g.Loss != w.Loss || g.TrainAcc != w.TrainAcc {
			t.Errorf("round %d: replay labeled %d steps %d loss %v acc %v; Run labeled %d steps %d loss %v acc %v",
				i+1, g.Labeled, g.Steps, g.Loss, g.TrainAcc, w.Labeled, w.Steps, w.Loss, w.TrainAcc)
		}
	}
}

func TestRunIncrementalRejectsNonPositiveSizes(t *testing.T) {
	b := tinyBundle(t)
	for name, zero := range map[string]func(*core.Config){
		"InitialLabeled": func(cfg *core.Config) { cfg.InitialLabeled = 0 },
		"RetrainEvery":   func(cfg *core.Config) { cfg.RetrainEvery = 0 },
		"StepsPerRound":  func(cfg *core.Config) { cfg.StepsPerRound = 0 },
	} {
		cfg := DefaultConfig(b, synth.MetricArea)
		cfg.InitialLabeled, cfg.StepsPerRound = 20, 30
		zero(&cfg)
		if curve, _, err := RunIncremental(b, cfg); err == nil {
			t.Errorf("zero %s: accepted, curve %+v", name, curve)
		}
	}
	// With no training flows the schedule has no rounds and no model.
	if curve, _, err := RunIncremental(&Bundle{Space: b.Space}, DefaultConfig(b, synth.MetricArea)); err == nil {
		t.Errorf("empty bundle: accepted, curve %+v", curve)
	}
}

func TestDefaultConfigNumOut(t *testing.T) {
	for pool, want := range map[int]int{60: 4, 300: 12} {
		if got := DefaultConfig(&Bundle{Space: flow.PaperSpace(), Pool: make([]flow.Flow, pool)}, synth.MetricArea).NumOut; got != want {
			t.Errorf("%d-flow pool: NumOut %d, want %d", pool, got, want)
		}
	}
}

// TestSweep pins each figure's variants (their order, the names flowexp
// prints, the run each makes of the default: SGD and Momentum at η =
// 1e-2, the rest at DefaultConfig's rate) and that each variant's
// curve is, bit for bit, RunIncremental on that run.
func TestSweep(t *testing.T) {
	b := tinyBundle(t)
	base := DefaultConfig(b, synth.MetricArea)
	base.InitialLabeled, base.RetrainEvery, base.StepsPerRound = 20, 10, 10
	variants := slices.Concat(Optimizers, Kernels, Activations)
	runs, err := Sweep(b, base, variants)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i, r := range runs {
		c := base
		variants[i].Apply(&c)
		want, _, err := RunIncremental(b, c)
		if err != nil || r.Name != variants[i].Name || !reflect.DeepEqual(r.Config, c) || len(r.Curve) != len(want) {
			t.Fatalf("run %d: %q, %d points, %+v; want %q, %d points, %+v (%v)",
				i, r.Name, len(r.Curve), r.Config, variants[i].Name, len(want), c, err)
		}
		for j, w := range want {
			if g := r.Curve[j]; g.Loss != w.Loss || g.TrainAcc != w.TrainAcc || g.GenAcc != w.GenAcc {
				t.Errorf("%s round %d: sweep %+v, replay %+v", r.Name, j+1, g, w)
			}
		}
		got = append(got, fmt.Sprintf("%s=%s@%g/%dx%d/%s", r.Name, c.Optimizer, c.LearnRate, c.Arch.KH, c.Arch.KW, c.Arch.Act))
	}
	want := "SGD=SGD@0.01/3x6/SELU Momentum=Momentum@0.01/3x6/SELU AdaGrad=AdaGrad@0.001/3x6/SELU " +
		"RMSProp=RMSProp@0.001/3x6/SELU Ftrl=Ftrl@0.001/3x6/SELU " +
		"3x6=RMSProp@0.001/3x6/SELU 6x6=RMSProp@0.001/6x6/SELU 6x12=RMSProp@0.001/6x12/SELU " +
		"ReLU=RMSProp@0.001/3x6/ReLU ReLU6=RMSProp@0.001/3x6/ReLU6 ELU=RMSProp@0.001/3x6/ELU " +
		"SELU=RMSProp@0.001/3x6/SELU Softplus=RMSProp@0.001/3x6/Softplus Softsign=RMSProp@0.001/3x6/Softsign " +
		"Sigmoid=RMSProp@0.001/3x6/Sigmoid Tanh=RMSProp@0.001/3x6/Tanh"
	if g := strings.Join(got, " "); g != want {
		t.Errorf("variants\n%s\nwant\n%s", g, want)
	}
}

func TestFormatCurve(t *testing.T) {
	c := []CurvePoint{{Round: 1, Labeled: 10, Steps: 5, Loss: 1.5, TrainAcc: 0.5, GenAcc: 0.25}}
	s := FormatCurve("test", c)
	if !strings.Contains(s, "# test") || !strings.Contains(s, "1,10,5,1.5000,0.5000,0.2500") {
		t.Fatalf("format: %q", s)
	}
}

func TestMetricsExtraction(t *testing.T) {
	qors := []synth.QoR{{Area: 1, Delay: 2}, {Area: 3, Delay: 4}}
	if a := Metrics(qors, synth.MetricArea); a[0] != 1 || a[1] != 3 {
		t.Fatal("area extraction")
	}
	if d := Metrics(qors, synth.MetricDelay); d[0] != 2 || d[1] != 4 {
		t.Fatal("delay extraction")
	}
}
