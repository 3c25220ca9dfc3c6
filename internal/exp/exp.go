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
	"fmt"
	"math/rand"
	"strings"
	"time"

	"flowgen/internal/aig"
	"flowgen/internal/core"
	"flowgen/internal/flow"
	"flowgen/internal/nn"
	"flowgen/internal/opt"
	"flowgen/internal/stats"
	"flowgen/internal/synth"
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

// DefaultConfig is the framework's protocol (core.DefaultConfig) at
// harness scale on b, labeling on metric: 300 steps a round, and
// max(4, pool/25) flows selected a side, which stays under the pool's
// 5% extreme classes, so the accuracy metric can reach 1.0 as in the
// paper (which picks 200 flows from a 100k pool). Seed 6 seeds the
// network at 7 and the trainer at 8 (core.NewTrainer); the bundle's
// flows were drawn by Collect's own seed.
func DefaultConfig(b *Bundle, metric synth.Metric) core.Config {
	cfg := core.DefaultConfig(b.Space)
	cfg.Metrics = []synth.Metric{metric}
	cfg.TrainFlows, cfg.SampleFlows = len(b.Flows), len(b.Pool)
	cfg.StepsPerRound = 300
	cfg.NumOut = max(4, len(b.Pool)/25)
	cfg.Seed = 6
	return cfg
}

// RunIncremental replays the paper's incremental protocol over the
// pre-collected bundle through core.Train, the framework's own round
// loop: after each labeling increment the determinators are refit, the
// CNN continues training, and the generated-flow accuracy is measured
// against the pool's ground truth. The bundle's flows and pool stand in
// for cfg.TrainFlows and cfg.SampleFlows. It also returns Figure 8's
// summary of the last round's selection on cfg's first labeling metric.
func RunIncremental(b *Bundle, cfg core.Config) ([]CurvePoint, Quality, error) {
	if len(b.Flows) == 0 || len(b.Pool) == 0 {
		return nil, Quality{}, fmt.Errorf("exp: the bundle has %d training and %d pool flows", len(b.Flows), len(b.Pool))
	}
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
	_, err := core.Train(cfg, b.Flows, func(lo, hi int) ([]synth.QoR, error) {
		return b.QoRs[lo:hi], nil
	}, func(r *core.Result) {
		st := r.Rounds[len(r.Rounds)-1]
		trained += st.TrainTime
		preds := core.PredictPool(r.Net, b.Space, b.Pool, cfg.Arch.InH, cfg.Arch.InW, 0)
		angelFlows, devilFlows := core.SelectFlows(preds, r.Model.NumClasses(), cfg.NumOut)
		angels, devils = measured(angelFlows), measured(devilFlows)
		curve = append(curve, CurvePoint{
			Round:    len(r.Rounds),
			Labeled:  st.Labeled,
			Steps:    st.Steps,
			Loss:     st.Loss,
			TrainAcc: st.TrainAcc,
			GenAcc:   core.SelectionAccuracy(r.Model, angels, devils),
			SimTime:  b.PerFlowAvg*time.Duration(st.Labeled) + trained,
		})
	})
	if err != nil {
		return nil, Quality{}, err
	}
	metric := cfg.Metrics[0]
	pool := Metrics(b.PoolQoRs, metric)
	return curve, Quality{
		Pool:    stats.Summarize(pool),
		Angel:   stats.Summarize(Metrics(angels, metric)),
		Devil:   stats.Summarize(Metrics(devils, metric)),
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
	Apply func(*core.Config)
}

// The variants of Figures 4–7, in the paper's order: the optimizers of
// Figures 4 and 5 (opt.Names), the 3×6, 6×6 and 6×12 kernels of Figure 6
// and the activations of Figure 7 (nn.Activations). SGD and Momentum run
// at η = 1e-2, since plain-gradient methods need a larger η at this
// scale; every other variant keeps the rate of the run it is applied to.
var Optimizers, Kernels, Activations []Variant

func init() {
	for _, name := range opt.Names {
		Optimizers = append(Optimizers, Variant{name, func(cfg *core.Config) {
			cfg.Optimizer = name
			if name == "SGD" || name == "Momentum" {
				cfg.LearnRate = 1e-2
			}
		}})
	}
	for _, k := range [][2]int{{3, 6}, {6, 6}, {6, 12}} {
		Kernels = append(Kernels, Variant{fmt.Sprintf("%dx%d", k[0], k[1]),
			func(cfg *core.Config) { cfg.Arch.KH, cfg.Arch.KW = k[0], k[1] }})
	}
	for _, act := range nn.Activations {
		Activations = append(Activations, Variant{act.String(), func(cfg *core.Config) { cfg.Arch.Act = act }})
	}
}

// Run is one variant's replay in a Sweep.
type Run struct {
	Name   string
	Config core.Config // the variant applied to the sweep's base run
	Curve  []CurvePoint
}

// Sweep is the comparison behind Figures 4–7: it replays RunIncremental
// over b once per variant, in order, each applied to a copy of base.
func Sweep(b *Bundle, base core.Config, variants []Variant) ([]Run, error) {
	runs := make([]Run, len(variants))
	for i, v := range variants {
		cfg := base
		v.Apply(&cfg)
		curve, _, err := RunIncremental(b, cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", v.Name, err)
		}
		runs[i] = Run{v.Name, cfg, curve}
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
