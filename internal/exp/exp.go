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
	"flowgen/internal/stats"
	"flowgen/internal/synth"
	"flowgen/internal/train"
)

// Bundle is a pre-collected experiment dataset: labeled training flows
// plus a ground-truth-labeled sample pool for accuracy measurement.
type Bundle struct {
	Space      flow.Space
	Flows      []flow.Flow
	QoRs       []synth.QoR
	Pool       []flow.Flow
	PoolQoRs   []synth.QoR
	SynthTime  time.Duration // wall time spent synthesizing everything
	PerFlowAvg time.Duration
	Memo       synth.MemoStats // work sharing achieved during collection
}

// Collect evaluates trainN training flows and poolN disjoint sample
// flows on the design with the prefix-memoized engine. Both sets must be
// non-empty: training needs flows, and the accuracy metric selects from
// the pool.
func Collect(design *aig.AIG, space flow.Space, trainN, poolN int, seed int64, progress func(done, total int)) (*Bundle, error) {
	if trainN <= 0 || poolN <= 0 {
		return nil, fmt.Errorf("exp: need training and pool flows, got %d and %d", trainN, poolN)
	}
	if !space.Holds(trainN + poolN) {
		return nil, fmt.Errorf("exp: %d training + %d pool flows exceed the space's %v flows", trainN, poolN, space.Count())
	}
	engine := synth.NewEngine(design, space)
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
}

// DefaultRunConfig mirrors the paper's protocol at harness scale on b:
// the optimizer, learning rate, architecture and labeling schedule are
// the framework's defaults (core.DefaultConfig). It selects max(4,
// pool/25) flows a side, which stays under the pool's 5% extreme
// classes, so the accuracy metric can reach 1.0 as in the paper (which
// picks 200 flows from a 100k pool).
func DefaultRunConfig(b *Bundle, metric synth.Metric) RunConfig {
	cfg := core.DefaultConfig(b.Space)
	return RunConfig{
		Metric:         metric,
		Optimizer:      cfg.Optimizer,
		LearnRate:      cfg.LearnRate,
		Arch:           cfg.Arch,
		InitialLabeled: cfg.InitialLabeled,
		RetrainEvery:   cfg.RetrainEvery,
		StepsPerRound:  300,
		NumOut:         max(4, len(b.Pool)/25),
		Seed:           7,
	}
}

// RunIncremental replays the paper's incremental protocol over the
// pre-collected bundle: after each labeling increment the determinators
// are refit, the CNN continues training, and the generated-flow accuracy
// is measured against the pool's ground truth. It also returns Figure
// 8's summary of the last round's selection.
func RunIncremental(b *Bundle, rc RunConfig) ([]CurvePoint, Quality, error) {
	if len(b.Flows) == 0 || len(b.Pool) == 0 {
		return nil, Quality{}, fmt.Errorf("exp: the bundle has %d training and %d pool flows", len(b.Flows), len(b.Pool))
	}
	sizes, err := core.Schedule(rc.InitialLabeled, rc.RetrainEvery, len(b.Flows))
	if err != nil {
		return nil, Quality{}, err
	}
	net := rc.Arch.Build(rc.Seed)
	optimizer, err := opt.ByName(rc.Optimizer, rc.LearnRate)
	if err != nil {
		return nil, Quality{}, err
	}
	trainer := train.NewTrainer(net, optimizer, rc.Seed+1)
	round := &core.Round{Space: b.Space, H: rc.Arch.InH, W: rc.Arch.InW, Steps: rc.StepsPerRound,
		Workers: rc.PredictWorkers}

	// Each round's selection from the pool is scored by the pool's
	// measured QoRs.
	truth := make(map[string]synth.QoR, len(b.Pool))
	for i, f := range b.Pool {
		truth[f.Key()] = b.PoolQoRs[i]
	}
	measured := func(sel []core.ScoredFlow) []synth.QoR {
		qs := make([]synth.QoR, len(sel))
		for i, s := range sel {
			qs[i] = truth[s.Flow.Key()]
		}
		return qs
	}

	var curve []CurvePoint
	var angels, devils []synth.QoR
	var trained time.Duration
	for _, labeled := range sizes {
		model, err := label.Fit(b.QoRs[:labeled], []synth.Metric{rc.Metric}, label.DefaultPercentiles)
		if err != nil {
			return nil, Quality{}, err
		}
		rr, err := round.Run(context.Background(), trainer, b.Flows[:labeled], b.QoRs[:labeled], model)
		if err != nil {
			return nil, Quality{}, err
		}
		trained += rr.Train

		preds := core.PredictPool(net, b.Space, b.Pool, rc.Arch.InH, rc.Arch.InW, rc.PredictWorkers)
		angelFlows, devilFlows := core.SelectFlows(preds, model.NumClasses(), rc.NumOut)
		angels, devils = measured(angelFlows), measured(devilFlows)
		curve = append(curve, CurvePoint{
			Round:    len(curve) + 1,
			Labeled:  labeled,
			Steps:    (len(curve) + 1) * rc.StepsPerRound,
			Loss:     rr.Loss,
			TrainAcc: rr.Acc,
			GenAcc:   core.SelectionAccuracy(model, angels, devils),
			SimTime:  b.PerFlowAvg*time.Duration(labeled) + trained,
		})
	}
	pool := Metrics(b.PoolQoRs, rc.Metric)
	return curve, Quality{
		Pool:    stats.Summarize(pool),
		Angel:   stats.Summarize(Metrics(angels, rc.Metric)),
		Devil:   stats.Summarize(Metrics(devils, rc.Metric)),
		PoolP5:  stats.Percentile(pool, 5),
		PoolP95: stats.Percentile(pool, 95),
	}, nil
}

// Quality is Figure 8's summary for one metric: the pool's true QoR and
// that of the angel and devil flows selected from it.
type Quality struct {
	Pool, Angel, Devil stats.Summary
	PoolP5, PoolP95    float64 // the pool's 5th and 95th percentiles
}

// Variant is one configuration a figure compares: its name and the
// change it makes to the run it is applied to.
type Variant struct {
	Name  string
	Apply func(*RunConfig)
}

// The variants of Figures 4–7, in the paper's order: the optimizers of
// Figures 4 and 5 (opt.Names), the 3×6, 6×6 and 6×12 kernels of Figure 6
// and the activations of Figure 7 (nn.Activations). SGD and Momentum run
// at η = 1e-2, since plain-gradient methods need a larger η at this
// scale; every other variant keeps the rate of the run it is applied to.
var Optimizers, Kernels, Activations []Variant

func init() {
	for _, name := range opt.Names {
		Optimizers = append(Optimizers, Variant{name, func(rc *RunConfig) {
			rc.Optimizer = name
			if name == "SGD" || name == "Momentum" {
				rc.LearnRate = 1e-2
			}
		}})
	}
	for _, k := range [][2]int{{3, 6}, {6, 6}, {6, 12}} {
		Kernels = append(Kernels, Variant{fmt.Sprintf("%dx%d", k[0], k[1]),
			func(rc *RunConfig) { rc.Arch.KH, rc.Arch.KW = k[0], k[1] }})
	}
	for _, act := range nn.Activations {
		Activations = append(Activations, Variant{act.String(), func(rc *RunConfig) { rc.Arch.Act = act }})
	}
}

// Run is one variant's replay in a Sweep.
type Run struct {
	Name   string
	Config RunConfig // the variant applied to the sweep's base run
	Curve  []CurvePoint
}

// Sweep is the comparison behind Figures 4–7: it replays RunIncremental
// over b once per variant, in order, each applied to a copy of base.
func Sweep(b *Bundle, base RunConfig, variants []Variant) ([]Run, error) {
	runs := make([]Run, len(variants))
	for i, v := range variants {
		rc := base
		v.Apply(&rc)
		curve, _, err := RunIncremental(b, rc)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", v.Name, err)
		}
		runs[i] = Run{v.Name, rc, curve}
	}
	return runs, nil
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
