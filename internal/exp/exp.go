// Package exp is the experiment harness that regenerates the paper's
// tables and figures. Its central trick is to pre-collect ground-truth
// QoRs once per design (synthesis dominates runtime, as in the paper
// where "collecting the training dataset takes most of the runtime") and
// then replay the incremental training protocol for each optimizer /
// kernel / activation under comparison, measuring the paper's accuracy
// metric against the pre-collected sample pool after every retraining
// round.
package exp

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"flowgen/internal/aig"
	"flowgen/internal/core"
	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/nn"
	"flowgen/internal/opt"
	"flowgen/internal/synth"
	"flowgen/internal/train"
)

// Bundle is a pre-collected experiment dataset: labeled training flows
// plus a ground-truth-labeled sample pool for accuracy measurement.
type Bundle struct {
	Space      flow.Space
	Engine     *synth.Engine
	Flows      []flow.Flow
	QoRs       []synth.QoR
	Pool       []flow.Flow
	PoolQoRs   []synth.QoR
	SynthTime  time.Duration // wall time spent synthesizing everything
	PerFlowAvg time.Duration
	Memo       synth.MemoStats // work sharing achieved during collection
}

// Collect evaluates trainN training flows and poolN disjoint sample
// flows on the design with the prefix-memoized engine.
func Collect(design *aig.AIG, space flow.Space, trainN, poolN int, seed int64, progress func(done, total int)) (*Bundle, error) {
	return CollectMode(design, space, trainN, poolN, seed, true, progress)
}

// CollectMode is Collect with an explicit memoization toggle (memo=false
// forces one independent synthesis per flow, e.g. for baseline timing).
func CollectMode(design *aig.AIG, space flow.Space, trainN, poolN int, seed int64, memo bool, progress func(done, total int)) (*Bundle, error) {
	if !space.Holds(trainN + poolN) {
		return nil, fmt.Errorf("exp: %d training + %d pool flows exceed the space's %v flows", trainN, poolN, space.Count())
	}
	engine := synth.NewEngine(design, space)
	engine.Memo = memo
	rng := rand.New(rand.NewSource(seed))
	all := space.RandomUnique(rng, trainN+poolN)
	start := time.Now()
	total := trainN + poolN
	var wrap func(int)
	if progress != nil {
		wrap = func(done int) { progress(done, total) }
	}
	qors, err := engine.EvaluateAll(all, wrap)
	if err != nil {
		return nil, err
	}
	dur := time.Since(start)
	return &Bundle{
		Space:      space,
		Engine:     engine,
		Flows:      all[:trainN],
		QoRs:       qors[:trainN],
		Pool:       all[trainN:],
		PoolQoRs:   qors[trainN:],
		SynthTime:  dur,
		PerFlowAvg: dur / time.Duration(total),
		Memo:       engine.MemoStats(),
	}, nil
}

// CurvePoint is one retraining round on an accuracy-over-time curve
// (Figures 4, 5, 6 and 7 plot these).
type CurvePoint struct {
	Round    int
	Labeled  int
	Steps    int
	Loss     float64
	TrainAcc float64       // classifier accuracy on its training set
	GenAcc   float64       // the paper's Section 4.1 metric on the pool
	SimTime  time.Duration // simulated wall time: labeling + training
}

// RunConfig parameterizes one incremental replay.
type RunConfig struct {
	Metric         synth.Metric
	Optimizer      string
	LearnRate      float64
	Arch           nn.ArchConfig
	InitialLabeled int
	RetrainEvery   int
	StepsPerRound  int
	NumOut         int
	Seed           int64
	// PredictWorkers shards pool prediction and accuracy evaluation
	// across this many workers (≤0 selects GOMAXPROCS).
	PredictWorkers int
	// Precision selects the inference engine for pool prediction and
	// accuracy measurement (training always runs float64). The zero
	// value is the packed float32 engine.
	Precision nn.Precision
}

// DefaultRunConfig mirrors the paper's protocol at harness scale.
func DefaultRunConfig(space flow.Space, metric synth.Metric) RunConfig {
	h, w := core.EncodeShape(space)
	arch := nn.FastArch(len(label.DefaultPercentiles) + 1)
	arch.InH, arch.InW = h, w
	return RunConfig{
		Metric:         metric,
		Optimizer:      "RMSProp",
		LearnRate:      1e-3,
		Arch:           arch,
		InitialLabeled: 100,
		RetrainEvery:   50,
		StepsPerRound:  300,
		NumOut:         20,
		Seed:           7,
	}
}

// RunIncremental replays the paper's incremental protocol over the
// pre-collected bundle: after each labeling increment the determinators
// are refit, the CNN continues training, and the generated-flow accuracy
// is measured against the pool's ground truth.
func RunIncremental(b *Bundle, rc RunConfig) ([]CurvePoint, *nn.Network, *label.Model, error) {
	sizes, err := core.Schedule(rc.InitialLabeled, rc.RetrainEvery, len(b.Flows))
	if err != nil {
		return nil, nil, nil, err
	}
	net := rc.Arch.Build(rc.Seed)
	optimizer, err := opt.ByName(rc.Optimizer, rc.LearnRate)
	if err != nil {
		return nil, nil, nil, err
	}
	trainer := train.NewTrainer(net, optimizer, rc.Seed+1)
	h, w := rc.Arch.InH, rc.Arch.InW
	round := &core.Round{Space: b.Space, H: h, W: w, Steps: rc.StepsPerRound,
		Workers: rc.PredictWorkers, Precision: rc.Precision}

	var curve []CurvePoint
	var model *label.Model
	var trained time.Duration
	for _, labeled := range sizes {
		model, err = label.Fit(b.QoRs[:labeled], []synth.Metric{rc.Metric}, label.DefaultPercentiles)
		if err != nil {
			return nil, nil, nil, err
		}
		rr, err := round.Run(context.Background(), trainer, b.Flows[:labeled], b.QoRs[:labeled], model)
		if err != nil {
			return nil, nil, nil, err
		}
		trained += rr.Train

		curve = append(curve, CurvePoint{
			Round:    len(curve) + 1,
			Labeled:  labeled,
			Steps:    (len(curve) + 1) * rc.StepsPerRound,
			Loss:     rr.Loss,
			TrainAcc: rr.Acc,
			GenAcc:   GeneratedAccuracy(b, net, model, rc),
			SimTime:  b.PerFlowAvg*time.Duration(labeled) + trained,
		})
	}
	return curve, net, model, nil
}

// GeneratedAccuracy computes the paper's accuracy metric: predict the
// pool, select NumOut angel and devil flows, and score them against the
// pool's ground truth under the current labeling model.
func GeneratedAccuracy(b *Bundle, net *nn.Network, model *label.Model, rc RunConfig) float64 {
	sel := SelectWithTruth(b, net, model, rc)
	return core.SelectionAccuracy(model, sel.AngelQoRs, sel.DevilQoRs)
}

// Selection returns the final angel/devil flows with their ground-truth
// QoRs (for the Figure 8 scatter).
type Selection struct {
	AngelQoRs []synth.QoR
	DevilQoRs []synth.QoR
}

// SelectWithTruth selects flows with the trained net and returns their
// measured QoRs from the pool ground truth.
func SelectWithTruth(b *Bundle, net *nn.Network, model *label.Model, rc RunConfig) Selection {
	h, w := rc.Arch.InH, rc.Arch.InW
	preds := core.PredictPool(net, rc.Precision, b.Space, b.Pool, h, w, rc.PredictWorkers)
	angels, devils := core.SelectFlows(preds, model.NumClasses(), rc.NumOut)
	byKey := make(map[string]synth.QoR, len(b.Pool))
	for i, f := range b.Pool {
		byKey[f.Key()] = b.PoolQoRs[i]
	}
	var sel Selection
	for _, a := range angels {
		sel.AngelQoRs = append(sel.AngelQoRs, byKey[a.Flow.Key()])
	}
	for _, d := range devils {
		sel.DevilQoRs = append(sel.DevilQoRs, byKey[d.Flow.Key()])
	}
	return sel
}

// Metrics extracts a QoR component series.
func Metrics(qors []synth.QoR, m synth.Metric) []float64 {
	out := make([]float64, len(qors))
	for i, q := range qors {
		out[i] = q.Get(m)
	}
	return out
}

// FormatCurve renders a curve as CSV rows.
func FormatCurve(name string, curve []CurvePoint) string {
	var s strings.Builder
	fmt.Fprintf(&s, "# %s\nround,labeled,steps,loss,train_acc,gen_acc,sim_seconds\n", name)
	for _, p := range curve {
		fmt.Fprintf(&s, "%d,%d,%d,%.4f,%.4f,%.4f,%.1f\n",
			p.Round, p.Labeled, p.Steps, p.Loss, p.TrainAcc, p.GenAcc, p.SimTime.Seconds())
	}
	return s.String()
}
