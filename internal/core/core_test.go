package core

import (
	"testing"

	"flowgen/internal/circuits"
	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/nn"
	"flowgen/internal/synth"
)

func tinyConfig() Config {
	space := flow.NewSpace(flow.DefaultAlphabet, 1) // L=6 flows, fast
	cfg := DefaultConfig(space)
	cfg.TrainFlows = 40
	cfg.InitialLabeled = 20
	cfg.RetrainEvery = 10
	cfg.StepsPerRound = 30
	cfg.SampleFlows = 60
	cfg.NumOut = 5
	return cfg
}

func TestEncodeShape(t *testing.T) {
	// Paper space: 24*6 = 144 -> 12x12.
	h, w := EncodeShape(flow.PaperSpace())
	if h != 12 || w != 12 {
		t.Fatalf("paper encode shape %dx%d, want 12x12", h, w)
	}
	// L=6, n=6 -> 36 -> 6x6.
	h, w = EncodeShape(flow.NewSpace(flow.DefaultAlphabet, 1))
	if h != 6 || w != 6 {
		t.Fatalf("encode shape %dx%d, want 6x6", h, w)
	}
}

func TestSelectFlowsPaperTable2(t *testing.T) {
	// Table 2 / Example 4: five flows, two angel slots -> F0 and F1 (the
	// class-0 flows with highest p0), F4 eliminated.
	probs := [][]float64{
		{0.47, 0.13, 0.22, 0.02, 0.03, 0.12, 0.01}, // F0 class 0
		{0.51, 0.12, 0.01, 0.09, 0.17, 0.08, 0.02}, // F1 class 0
		{0.02, 0.45, 0.14, 0.12, 0.11, 0.10, 0.06}, // F2 class 1
		{0.12, 0.03, 0.17, 0.62, 0.01, 0.02, 0.03}, // F3 class 3
		{0.35, 0.23, 0.09, 0.02, 0.13, 0.17, 0.01}, // F4 class 0, lower p0
	}
	preds := make([]ScoredFlow, len(probs))
	for i, p := range probs {
		cls, best := 0, p[0]
		for c, v := range p {
			if v > best {
				cls, best = c, v
			}
		}
		preds[i] = ScoredFlow{Flow: flow.Flow{Indices: []int{i}}, Class: cls, Confidence: best, Probs: p}
	}
	angels, _ := SelectFlows(preds, 7, 2)
	if len(angels) != 2 {
		t.Fatalf("got %d angels", len(angels))
	}
	// F1 has p0=0.51 > F0's 0.47; F4 must be eliminated.
	if angels[0].Flow.Indices[0] != 1 || angels[1].Flow.Indices[0] != 0 {
		t.Fatalf("selected flows %d,%d; want 1,0",
			angels[0].Flow.Indices[0], angels[1].Flow.Indices[0])
	}
}

func TestSelectFlowsDevils(t *testing.T) {
	preds := []ScoredFlow{
		{Flow: flow.Flow{Indices: []int{0}}, Class: 6, Probs: []float64{0, 0, 0, 0, 0, 0.1, 0.9}},
		{Flow: flow.Flow{Indices: []int{1}}, Class: 6, Probs: []float64{0, 0, 0, 0, 0, 0.05, 0.95}},
		{Flow: flow.Flow{Indices: []int{2}}, Class: 0, Probs: []float64{0.9, 0, 0, 0, 0, 0, 0.1}},
	}
	angels, devils := SelectFlows(preds, 7, 1)
	if len(devils) != 1 || devils[0].Flow.Indices[0] != 1 {
		t.Fatalf("devil selection wrong: %+v", devils)
	}
	if len(angels) != 1 || angels[0].Flow.Indices[0] != 2 {
		t.Fatalf("angel selection wrong: %+v", angels)
	}
}

func TestFrameworkEndToEndTiny(t *testing.T) {
	cfg := tinyConfig()
	engine := synth.NewEngine(circuits.ALU(8), cfg.Space)
	fw, err := New(cfg, engine)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Incremental schedule: 20 initial + 2 rounds of 10 = 3 rounds.
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds = %d, want 3", len(res.Rounds))
	}
	if res.Rounds[0].Labeled != 20 || res.Rounds[2].Labeled != 40 {
		t.Fatalf("labeled progression wrong: %+v", res.Rounds)
	}
	if res.Model == nil || res.Net == nil {
		t.Fatal("missing model/net")
	}
	if len(res.TrainQoRs) != 40 {
		t.Fatalf("train QoRs = %d", len(res.TrainQoRs))
	}
	if len(res.Angels) != cfg.NumOut || len(res.Devils) != cfg.NumOut {
		t.Fatalf("selection sizes %d/%d, want %d", len(res.Angels), len(res.Devils), cfg.NumOut)
	}
	for _, a := range res.Angels {
		if err := cfg.Space.Validate(a.Flow); err != nil {
			t.Fatal(err)
		}
	}
	// Predicted-class-0 flows must precede fallback picks, and within
	// each group ordering is by descending class-0 probability.
	seenFallback := false
	for i, a := range res.Angels {
		if a.Class != 0 {
			seenFallback = true
		} else if seenFallback {
			t.Fatal("class-0 prediction ranked after fallback pick")
		}
		if i > 0 && res.Angels[i-1].Class == a.Class && res.Angels[i].Probs[0] > res.Angels[i-1].Probs[0] {
			t.Fatal("angels not sorted by confidence")
		}
	}
	// Accuracy metric is computable and in [0,1].
	acc, err := fw.Accuracy(res)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of range", acc)
	}
}

// TestSelectionAccuracy pins the §4.1 metric: an angel scores when its
// true class is 0, a devil when its true class is the top class n, over
// all selected flows.
func TestSelectionAccuracy(t *testing.T) {
	// Area ≤ 10 is class 0, ≤ 20 class 1, above 20 the top class 2.
	model := &label.Model{Metrics: []synth.Metric{synth.MetricArea},
		Percentiles: []float64{5, 95}, Determinators: [][]float64{{10, 20}}}
	q := func(areas ...float64) []synth.QoR {
		out := make([]synth.QoR, len(areas))
		for i, a := range areas {
			out[i].Area = a
		}
		return out
	}
	for _, tc := range []struct {
		angels, devils []synth.QoR
		want           float64
	}{
		{nil, nil, 0},
		{q(10), q(21), 1},
		{q(5, 15), q(25, 10), 0.5},
		{q(30, 1, 2), nil, 2.0 / 3},
		{nil, q(20, 20.5), 0.5},
	} {
		if got := SelectionAccuracy(model, tc.angels, tc.devils); got != tc.want {
			t.Fatalf("angels %v devils %v: accuracy %v, want %v", tc.angels, tc.devils, got, tc.want)
		}
	}
}

func TestGeneratePoolDisjoint(t *testing.T) {
	cfg := tinyConfig()
	engine := synth.NewEngine(circuits.ALU(8), cfg.Space)
	fw, err := New(cfg, engine)
	if err != nil {
		t.Fatal(err)
	}
	trainFlows := cfg.Space.RandomUnique(fw.rng, 30)
	pool := fw.GeneratePool(trainFlows)
	if len(pool) != cfg.SampleFlows {
		t.Fatalf("pool size %d", len(pool))
	}
	seen := map[string]bool{}
	for _, f := range trainFlows {
		seen[f.Key()] = true
	}
	for _, f := range pool {
		if seen[f.Key()] {
			t.Fatal("pool overlaps training flows")
		}
		seen[f.Key()] = true
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := tinyConfig()
	engine := synth.NewEngine(circuits.ALU(8), cfg.Space)
	bad := cfg
	bad.TrainFlows = 5 // less than InitialLabeled
	if _, err := New(bad, engine); err == nil {
		t.Fatal("expected error for TrainFlows < InitialLabeled")
	}
	bad = cfg
	bad.Optimizer = "Adamant"
	if _, err := New(bad, engine); err == nil {
		t.Fatal("expected error for unknown optimizer")
	}
	bad = cfg
	bad.InitialLabeled = 0
	if _, err := New(bad, engine); err == nil {
		t.Fatal("expected error for zero InitialLabeled")
	}
	bad = cfg
	bad.RetrainEvery = 0
	if _, err := New(bad, engine); err == nil {
		t.Fatal("expected error for zero RetrainEvery")
	}
	bad = cfg
	bad.StepsPerRound = 0
	if _, err := New(bad, engine); err == nil {
		t.Fatal("expected error for zero StepsPerRound")
	}
	// The m=1 space holds 720 flows: a pool that fits alone but not
	// beside the training flows, and training flows that do not fit at
	// all, are errors before any labeling.
	bad = cfg
	bad.TrainFlows, bad.SampleFlows = 200, 600
	if _, err := New(bad, engine); err == nil {
		t.Fatal("expected error for TrainFlows + SampleFlows beyond the space")
	}
	bad = cfg
	bad.TrainFlows = 800
	if _, err := New(bad, engine); err == nil {
		t.Fatal("expected error for TrainFlows beyond the space")
	}
}

// TestNewDerivesEncodingFromArch: Arch.InH×Arch.InW is the one statement
// of the input shape; New overwrites the deprecated EncodeH/EncodeW.
func TestNewDerivesEncodingFromArch(t *testing.T) {
	cfg := DefaultConfig(flow.PaperSpace())
	cfg.Arch.InH, cfg.Arch.InW, cfg.EncodeH, cfg.EncodeW = 24, 6, 12, 12
	fw, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fw.Cfg.EncodeH != 24 || fw.Cfg.EncodeW != 6 {
		t.Fatalf("24x6 network input: encoding %dx%d", fw.Cfg.EncodeH, fw.Cfg.EncodeW)
	}
}

func TestPaperConfigShape(t *testing.T) {
	cfg := PaperConfig(flow.PaperSpace())
	if cfg.TrainFlows != 10000 || cfg.SampleFlows != 100000 || cfg.NumOut != 200 {
		t.Fatalf("paper counts wrong: %+v", cfg)
	}
	if cfg.InitialLabeled != 1000 || cfg.RetrainEvery != 500 {
		t.Fatal("paper incremental schedule wrong")
	}
	if cfg.Arch.Filters != 200 || cfg.Arch.KH != 6 || cfg.Arch.KW != 12 {
		t.Fatal("paper architecture wrong")
	}
	if cfg.LearnRate != 1e-4 {
		t.Fatal("paper learning rate wrong")
	}
	if cfg.Arch.Act != nn.SELU {
		t.Fatal("paper activation wrong")
	}
}

func TestDeterministicRun(t *testing.T) {
	run := func() ([]ScoredFlow, []RoundStat) {
		cfg := tinyConfig()
		cfg.TrainFlows, cfg.InitialLabeled, cfg.RetrainEvery = 25, 15, 10
		cfg.StepsPerRound = 15
		cfg.SampleFlows = 30
		engine := synth.NewEngine(circuits.ALU(8), cfg.Space)
		fw, err := New(cfg, engine)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fw.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Angels, res.Rounds
	}
	a1, r1 := run()
	a2, r2 := run()
	if len(a1) != len(a2) {
		t.Fatal("nondeterministic selection count")
	}
	for i := range a1 {
		if a1[i].Flow.Key() != a2[i].Flow.Key() || a1[i].Confidence != a2[i].Confidence {
			t.Fatal("nondeterministic angel flows")
		}
	}
	for i := range r1 {
		if r1[i].Loss != r2[i].Loss || r1[i].TrainAcc != r2[i].TrainAcc {
			t.Fatal("nondeterministic training rounds")
		}
	}
}

func TestMultiMetricObjective(t *testing.T) {
	cfg := tinyConfig()
	cfg.Metrics = []synth.Metric{synth.MetricArea, synth.MetricDelay}
	cfg.TrainFlows, cfg.InitialLabeled, cfg.RetrainEvery = 25, 15, 10
	cfg.StepsPerRound = 10
	cfg.SampleFlows = 25
	engine := synth.NewEngine(circuits.ALU(8), cfg.Space)
	fw, err := New(cfg, engine)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Model.Metrics) != 2 {
		t.Fatal("model did not keep both metrics")
	}
	_ = label.DefaultPercentiles
}

func TestSelectFlowsNoOverlap(t *testing.T) {
	// With flat probabilities the fallback could otherwise pick the same
	// flow as both angel and devil.
	var preds []ScoredFlow
	for i := 0; i < 10; i++ {
		probs := []float64{0.15, 0.14, 0.14, 0.14, 0.14, 0.14, 0.15}
		preds = append(preds, ScoredFlow{Flow: flow.Flow{Indices: []int{i}}, Class: 1, Probs: probs})
	}
	angels, devils := SelectFlows(preds, 7, 5)
	seen := map[int]bool{}
	for _, a := range angels {
		seen[a.Flow.Indices[0]] = true
	}
	for _, d := range devils {
		if seen[d.Flow.Indices[0]] {
			t.Fatal("flow selected as both angel and devil")
		}
	}
	if len(angels) != 5 || len(devils) != 5 {
		t.Fatalf("sizes %d/%d", len(angels), len(devils))
	}
}
