// Package core implements the paper's contribution: the fully autonomous
// framework of Figure 2 that develops design-specific synthesis flows
// without human knowledge. It wires the substrates together:
//
//	① generate training data — random flows are synthesized (internal/synth)
//	   and labeled by QoR percentile (internal/label), incrementally: the
//	   first classifier trains after 1000 labeled flows and is retrained
//	   every 500 new flows, with class determinators refit dynamically;
//	② train the CNN classifier (internal/nn, internal/opt, internal/train)
//	   on one-hot flow matrices (internal/flow);
//	③ predict a large pool of unlabeled flows and emit the angel-flows and
//	   devil-flows with the highest softmax confidence in class 0 and
//	   class n.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/nn"
	"flowgen/internal/opt"
	"flowgen/internal/synth"
	"flowgen/internal/train"
)

// Config parameterizes a framework run. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	Space       flow.Space
	Metrics     []synth.Metric // labeling objective (single- or multi-metric)
	Percentiles []float64      // class determinator percentiles

	TrainFlows     int // total labeled flows to collect (paper: 10000)
	InitialLabeled int // flows before the first training round (paper: 1000)
	RetrainEvery   int // new flows per retraining round (paper: 500)
	StepsPerRound  int // CNN minibatch steps per (re)training round
	SampleFlows    int // unlabeled pool size (paper: 100000)
	NumOut         int // angel and devil flows to emit (paper: 200)

	// Arch.InH×Arch.InW is also the one-hot flow encoding shape.
	Arch      nn.ArchConfig
	Optimizer string  // one of opt.Names (paper best: RMSProp)
	LearnRate float64 // paper: 1e-4
	Seed      int64

	// Precision is read by nothing: pools and accuracy always score
	// through the packed float32 engine.
	//
	// Deprecated: kept only because bench/labeling.go passes it to
	// nn.NewPredictor and train.AccuracyPrec (see nn.Precision).
	Precision nn.Precision

	// Deprecated: New sets these to Arch.InH×Arch.InW; kept only
	// because bench/labeling.go reads them.
	EncodeH, EncodeW int
}

// DefaultConfig returns a configuration with the paper's structure but
// CPU-scale counts. The objective defaults to area.
func DefaultConfig(space flow.Space) Config {
	cfg := Config{
		Space:          space,
		Metrics:        []synth.Metric{synth.MetricArea},
		Percentiles:    label.DefaultPercentiles,
		TrainFlows:     300,
		InitialLabeled: 100,
		RetrainEvery:   50,
		StepsPerRound:  400,
		SampleFlows:    600,
		NumOut:         20,
		Optimizer:      "RMSProp",
		LearnRate:      1e-3,
		Seed:           1,
	}
	cfg.Arch = nn.FastArch(len(cfg.Percentiles) + 1)
	cfg.Arch.InH, cfg.Arch.InW = EncodeShape(space)
	return cfg
}

// PaperConfig returns the paper's exact experiment parameters (days of
// runtime on the paper's hardware; use DefaultConfig for laptops).
func PaperConfig(space flow.Space) Config {
	cfg := DefaultConfig(space)
	cfg.TrainFlows = 10000
	cfg.InitialLabeled = 1000
	cfg.RetrainEvery = 500
	cfg.StepsPerRound = 5000 // ~100k steps over 19 retraining rounds
	cfg.SampleFlows = 100000
	cfg.NumOut = 200
	cfg.LearnRate = 1e-4
	cfg.Arch = nn.PaperArch(len(cfg.Percentiles) + 1)
	cfg.Arch.InH, cfg.Arch.InW = EncodeShape(space)
	return cfg
}

// EncodeShape picks the squarest factorization of L*n for the 2-D
// encoding (24×6 → 12×12, as in the paper).
func EncodeShape(s flow.Space) (h, w int) {
	total := s.Length() * s.N()
	best := 1
	for d := 1; d*d <= total; d++ {
		if total%d == 0 {
			best = d
		}
	}
	return best, total / best
}

// ScoredFlow is a pool flow with its prediction.
type ScoredFlow struct {
	Flow       flow.Flow
	Class      int     // argmax class
	Confidence float64 // probability of the selected class
	Probs      []float64
}

// RoundStat records one incremental (re)training round for the
// accuracy-over-time curves of Figures 4 and 5.
type RoundStat struct {
	Labeled   int           // labeled flows available in this round
	Steps     int           // cumulative training steps
	Loss      float64       // mean minibatch loss in the round
	TrainAcc  float64       // accuracy on the labeled training set
	Collect   time.Duration // wall time spent labeling (synthesis)
	TrainTime time.Duration // wall time spent in gradient descent
}

// Result is the output of a framework run.
type Result struct {
	Angels []ScoredFlow
	Devils []ScoredFlow
	Model  *label.Model
	Net    *nn.Network
	Rounds []RoundStat

	TrainFlows []flow.Flow
	TrainQoRs  []synth.QoR

	// Memo is the engine's accumulated work-sharing statistics after the
	// run. The incremental protocol evaluates many batches on one engine,
	// so its persistent transition/QoR caches compound across rounds.
	Memo synth.MemoStats
}

// Framework is the autonomous flow developer.
type Framework struct {
	Cfg    Config
	Engine *synth.Engine
	rng    *rand.Rand
}

// New builds a framework over a synthesis engine.
func New(cfg Config, engine *synth.Engine) (*Framework, error) {
	if cfg.TrainFlows < cfg.InitialLabeled {
		return nil, fmt.Errorf("core: TrainFlows %d < InitialLabeled %d", cfg.TrainFlows, cfg.InitialLabeled)
	}
	if !cfg.Space.Holds(cfg.TrainFlows + cfg.SampleFlows) {
		return nil, fmt.Errorf("core: TrainFlows %d + SampleFlows %d exceed the space's %v flows",
			cfg.TrainFlows, cfg.SampleFlows, cfg.Space.Count())
	}
	if _, err := Schedule(cfg.InitialLabeled, cfg.RetrainEvery, cfg.TrainFlows); err != nil {
		return nil, err
	}
	if err := checkSteps(cfg.StepsPerRound); err != nil {
		return nil, err
	}
	if cfg.NumOut <= 0 {
		return nil, fmt.Errorf("core: non-positive NumOut %d", cfg.NumOut)
	}
	if _, err := opt.ByName(cfg.Optimizer, cfg.LearnRate); err != nil {
		return nil, err
	}
	cfg.EncodeH, cfg.EncodeW = cfg.Arch.InH, cfg.Arch.InW
	return &Framework{Cfg: cfg, Engine: engine, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Progress receives phase updates during Run.
type Progress func(format string, args ...any)

func nop(string, ...any) {}

// Run executes the full pipeline ①→②→③ and returns the angel and devil
// flows.
func (fw *Framework) Run(progress Progress) (*Result, error) {
	if progress == nil {
		progress = nop
	}
	cfg := fw.Cfg

	// ① Sample the training flows up front (Train labels them in
	// increments through the engine).
	flows := cfg.Space.RandomUnique(fw.rng, cfg.TrainFlows)
	res, err := Train(cfg, flows, func(lo, hi int) ([]synth.QoR, error) {
		qors, err := fw.Engine.EvaluateAll(flows[lo:hi], nil)
		if err == nil {
			progress("labeled %d/%d flows", hi, cfg.TrainFlows)
		}
		return qors, err
	}, func(r *Result) {
		last := r.Rounds[len(r.Rounds)-1]
		progress("round %d: loss %.4f train-acc %.3f", len(r.Rounds), last.Loss, last.TrainAcc)
	})
	if err != nil {
		return nil, err
	}
	res.Memo = fw.Engine.MemoStats()
	if res.Memo.Flows > 0 {
		progress("memoized synthesis: %d/%d transformations run (%.2fx work sharing)",
			res.Memo.TransformsRun, res.Memo.DirectSteps, res.Memo.SpeedupFactor())
	}

	// ③ Predict the unlabeled pool and pick the extremes.
	pool := fw.GeneratePool(flows)
	progress("predicting %d sample flows", len(pool))
	preds := PredictPool(res.Net, cfg.Space, pool, cfg.Arch.InH, cfg.Arch.InW, 0)
	res.Angels, res.Devils = SelectFlows(preds, res.Model.NumClasses(), cfg.NumOut)
	progress("selected %d angel and %d devil flows", len(res.Angels), len(res.Devils))
	return res, nil
}

// GeneratePool samples cfg.SampleFlows unlabeled flows disjoint from the
// given training flows. New has checked that the space holds the pool and
// cfg.TrainFlows more, so it panics only when exclude holds more flows
// than that.
func (fw *Framework) GeneratePool(exclude []flow.Flow) []flow.Flow {
	if !fw.Cfg.Space.Holds(fw.Cfg.SampleFlows + len(exclude)) {
		panic("core: sample pool plus excluded flows exceed the flow space size")
	}
	seen := make(map[string]struct{}, len(exclude))
	for _, f := range exclude {
		seen[f.Key()] = struct{}{}
	}
	out := make([]flow.Flow, 0, fw.Cfg.SampleFlows)
	for len(out) < fw.Cfg.SampleFlows {
		f := fw.Cfg.Space.Random(fw.rng)
		k := f.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, f)
	}
	return out
}

// FlowSource is the nn.Source that one-hot encodes pool flows straight
// into a prediction worker's chunk buffer (h×w elements per sample) —
// the shared piece of every streamed pool scorer (PredictPool, the
// serving layer).
func FlowSource(space flow.Space, pool []flow.Flow, h, w int) nn.Source {
	hw := h * w
	return func(dst []float32, lo, hi int) {
		for i := lo; i < hi; i++ {
			pool[i].EncodeInto32(space, dst[(i-lo)*hw:(i-lo+1)*hw])
		}
	}
}

// ScoreFlows pairs pool flows with their predicted distributions.
func ScoreFlows(pool []flow.Flow, probs [][]float64) []ScoredFlow {
	out := make([]ScoredFlow, len(pool))
	for i, f := range pool {
		cls := train.Argmax(probs[i])
		out[i] = ScoredFlow{Flow: f, Class: cls, Confidence: probs[i][cls], Probs: probs[i]}
	}
	return out
}

// PredictPool classifies every pool flow (h×w encodings), sharding the
// pool across workers prediction workers (≤0 selects GOMAXPROCS) — the
// one pool scorer behind Framework.Run and the experiment harness.
// Encodings are streamed into chunk-sized worker buffers instead of
// materializing one pool-sized tensor (~115 MB at the paper's 100k-flow
// pool), so peak memory is flat in the pool size. The network compiles
// into the packed f32 engine (nn.NewInferenceNet), whose results are
// deterministic regardless of sharding.
func PredictPool(net *nn.Network, space flow.Space, pool []flow.Flow, h, w, workers int) []ScoredFlow {
	if len(pool) == 0 {
		return nil
	}
	pred, err := nn.NewInferenceNet(net, h, w)
	if err != nil {
		panic("core: pool prediction failed: " + err.Error())
	}
	probs, err := pred.PredictStream(context.Background(), len(pool), workers,
		FlowSource(space, pool, h, w))
	if err != nil {
		panic("core: pool prediction failed: " + err.Error())
	}
	return ScoreFlows(pool, probs)
}

// SelectFlows implements Section 3.3 / Table 2: among flows predicted as
// class 0 (resp. class n) pick the numOut with the highest class-0
// (class-n) probability. When the classifier assigns fewer than numOut
// pool flows to an extreme class (possible early in incremental training,
// since classes 0 and n hold only ~5% of the population each), the
// remaining slots are filled by ranking the rest of the pool on the same
// class probability — the selection rule degrades gracefully instead of
// returning short lists.
func SelectFlows(preds []ScoredFlow, numClasses, numOut int) (angels, devils []ScoredFlow) {
	taken := make(map[string]bool)
	pick := func(class int) []ScoredFlow {
		var primary, rest []ScoredFlow
		for _, p := range preds {
			if taken[p.Flow.Key()] {
				continue
			}
			if p.Class == class {
				primary = append(primary, p)
			} else {
				rest = append(rest, p)
			}
		}
		byClassProb := func(s []ScoredFlow) {
			sort.SliceStable(s, func(i, j int) bool { return s[i].Probs[class] > s[j].Probs[class] })
		}
		byClassProb(primary)
		if len(primary) < numOut {
			byClassProb(rest)
			primary = append(primary, rest[:min(numOut-len(primary), len(rest))]...)
		}
		if len(primary) > numOut {
			primary = primary[:numOut]
		}
		for _, p := range primary {
			taken[p.Flow.Key()] = true
		}
		return primary
	}
	return pick(0), pick(numClasses - 1)
}

// Accuracy scores a run's selection with SelectionAccuracy. True
// classes come from synthesizing the generated flows and applying the
// labeling model.
func (fw *Framework) Accuracy(res *Result) (float64, error) {
	all := append(append([]ScoredFlow{}, res.Angels...), res.Devils...)
	flows := make([]flow.Flow, len(all))
	for i, s := range all {
		flows[i] = s.Flow
	}
	qors, err := fw.Engine.EvaluateAll(flows, nil)
	if err != nil {
		return 0, err
	}
	return SelectionAccuracy(res.Model, qors[:len(res.Angels)], qors[len(res.Angels):]), nil
}

// SelectionAccuracy is the paper's Section 4.1 metric: the fraction of
// angel flows whose true class is 0 plus devil flows whose true class is
// n, over all selected flows. angels and devils hold the selected flows'
// measured QoRs; model assigns their true classes.
func SelectionAccuracy(model *label.Model, angels, devils []synth.QoR) float64 {
	total := len(angels) + len(devils)
	if total == 0 {
		return 0
	}
	correct := 0
	for _, q := range angels {
		if model.Class(q) == 0 {
			correct++
		}
	}
	top := model.NumClasses() - 1
	for _, q := range devils {
		if model.Class(q) == top {
			correct++
		}
	}
	return float64(correct) / float64(total)
}
