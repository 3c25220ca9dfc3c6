package exp

import (
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
	// The m=1 space holds 720 flows.
	if _, err := CollectMode(circuits.ALU(8), b.Space, 200, 600, 1, false, nil); err == nil {
		t.Fatal("collecting 800 flows from a 720-flow space succeeded")
	}
}

func TestRunIncrementalCurve(t *testing.T) {
	b := tinyBundle(t)
	rc := DefaultRunConfig(b.Space, synth.MetricArea)
	rc.InitialLabeled = 20
	rc.RetrainEvery = 10
	rc.StepsPerRound = 30
	rc.NumOut = 5
	curve, net, model, err := RunIncremental(b, rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 { // 20, 30, 40
		t.Fatalf("curve length %d, want 3", len(curve))
	}
	if net == nil || model == nil {
		t.Fatal("missing outputs")
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
	sel := SelectWithTruth(b, net, model, rc)
	if len(sel.AngelQoRs) != rc.NumOut || len(sel.DevilQoRs) != rc.NumOut {
		t.Fatalf("selection sizes %d/%d", len(sel.AngelQoRs), len(sel.DevilQoRs))
	}
}

// TestRunIncrementalMatchesFrameworkRun: replaying the incremental
// protocol over a pre-collected bundle trains exactly what the
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
	rc := DefaultRunConfig(space, synth.MetricArea)
	rc.InitialLabeled, rc.RetrainEvery, rc.StepsPerRound = cfg.InitialLabeled, cfg.RetrainEvery, cfg.StepsPerRound
	rc.NumOut = cfg.NumOut
	rc.Seed = seed + 1 // exp builds its net at Seed, core at Seed+1
	got, _, _, err := RunIncremental(b, rc)
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
	for name, zero := range map[string]func(*RunConfig){
		"InitialLabeled": func(rc *RunConfig) { rc.InitialLabeled = 0 },
		"RetrainEvery":   func(rc *RunConfig) { rc.RetrainEvery = 0 },
		"StepsPerRound":  func(rc *RunConfig) { rc.StepsPerRound = 0 },
	} {
		rc := DefaultRunConfig(b.Space, synth.MetricArea)
		rc.InitialLabeled, rc.StepsPerRound = 20, 30
		zero(&rc)
		if curve, _, _, err := RunIncremental(b, rc); err == nil {
			t.Errorf("zero %s: accepted, curve %+v", name, curve)
		}
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
