package core

import (
	"context"
	"fmt"
	"time"

	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/nn"
	"flowgen/internal/opt"
	"flowgen/internal/synth"
	"flowgen/internal/train"
)

// Schedule returns the labeled-corpus size after each round of the
// paper's incremental protocol: initial flows, then every more per
// round, the last round taking whatever remains of total.
func Schedule(initial, every, total int) ([]int, error) {
	if initial <= 0 || every <= 0 {
		return nil, fmt.Errorf("core: non-positive round sizes (initial %d, every %d)", initial, every)
	}
	var sizes []int
	for n := initial; n < total; n += every {
		sizes = append(sizes, n)
	}
	if total > 0 {
		sizes = append(sizes, total)
	}
	return sizes, nil
}

func checkSteps(steps int) error {
	if steps <= 0 {
		return fmt.Errorf("core: non-positive steps per round %d", steps)
	}
	return nil
}

// NewTrainer builds the protocol's learner: a cfg.Arch network seeded
// at cfg.Seed+1 under a cfg.Optimizer trainer at cfg.LearnRate seeded
// at cfg.Seed+2. Together with the flows Framework.Run draws at
// cfg.Seed, this is the one seed convention of every driver.
func NewTrainer(cfg Config) (*train.Trainer, error) {
	optimizer, err := opt.ByName(cfg.Optimizer, cfg.LearnRate)
	if err != nil {
		return nil, err
	}
	return train.NewTrainer(cfg.Arch.Build(cfg.Seed+1), optimizer, cfg.Seed+2), nil
}

// Train is the one round loop of Figure 2's incremental protocol over
// flows, the training set in labeling order. For each corpus size of
// Schedule(cfg.InitialLabeled, cfg.RetrainEvery, len(flows)) it takes
// the next tranche's labels, flows[lo:hi] through labelFn, refits the
// class determinators (cfg.Metrics, cfg.Percentiles) on every label so
// far, trains one Round of cfg.StepsPerRound steps on the labeled corpus
// and then calls hook with the run so far: Net, Model (the round's),
// Rounds (the round's last), TrainFlows and TrainQoRs. Framework.Run
// labels through the synthesis engine, exp.RunIncremental from a
// pre-collected bundle; both drive this loop.
//
// No tranche's labels depend on a round, so Train labels one tranche
// ahead: once tranche k's labels arrive it starts labelFn for tranche
// k+1 on its own goroutine, then fits, trains round k and calls hook.
// labelFn is called once per tranche, in order and never twice at once,
// but it runs while the previous round trains and its hook runs, so the
// two must not share unsynchronized state. No call is in flight once
// Train returns, also on an error, and a labelFn panic is re-raised on
// Train's goroutine.
func Train(cfg Config, flows []flow.Flow, labelFn func(lo, hi int) ([]synth.QoR, error), hook func(*Result)) (*Result, error) {
	sizes, err := Schedule(cfg.InitialLabeled, cfg.RetrainEvery, len(flows))
	if err != nil {
		return nil, err
	}
	trainer, err := NewTrainer(cfg)
	if err != nil {
		return nil, err
	}
	round := &Round{Space: cfg.Space, H: cfg.Arch.InH, W: cfg.Arch.InW, Steps: cfg.StepsPerRound}
	res := &Result{Net: trainer.Net, TrainFlows: flows, TrainQoRs: make([]synth.QoR, 0, len(flows))}
	if len(sizes) == 0 {
		return res, nil
	}
	ahead := startTranche(labelFn, 0, sizes[0])
	defer func() {
		if ahead != nil {
			ahead.wait()
		}
	}()
	for k, labeled := range sizes {
		tWait := time.Now()
		cur := ahead
		ahead = nil
		batch, err := cur.wait()
		wait := time.Since(tWait)
		if err != nil {
			return nil, err
		}
		res.TrainQoRs = append(res.TrainQoRs, batch...)
		if k+1 < len(sizes) {
			ahead = startTranche(labelFn, labeled, sizes[k+1])
		}

		// Refit determinators on everything collected so far (the class
		// definitions change dynamically as the dataset grows).
		if res.Model, err = label.Fit(res.TrainQoRs, cfg.Metrics, cfg.Percentiles); err != nil {
			return nil, err
		}
		rr, err := round.Run(context.Background(), trainer, flows[:labeled], res.TrainQoRs, res.Model)
		if err != nil {
			return nil, err
		}
		res.Rounds = append(res.Rounds, RoundStat{
			Labeled:   labeled,
			Steps:     (len(res.Rounds) + 1) * cfg.StepsPerRound,
			Loss:      rr.Loss,
			TrainAcc:  rr.Acc,
			Collect:   cur.took,
			Wait:      wait,
			TrainTime: rr.Train,
		})
		hook(res)
	}
	return res, nil
}

// tranche is one labelFn call running on its own goroutine.
type tranche struct {
	done     chan struct{} // closed once the call has returned or panicked
	qors     []synth.QoR
	err      error
	panicked any           // what the call panicked with, if it did
	took     time.Duration // the call's wall time
}

// startTranche starts labelFn(lo, hi) on a new goroutine.
func startTranche(labelFn func(lo, hi int) ([]synth.QoR, error), lo, hi int) *tranche {
	t := &tranche{done: make(chan struct{})}
	go func() {
		start := time.Now()
		defer func() {
			t.panicked = recover()
			t.took = time.Since(start)
			close(t.done)
		}()
		t.qors, t.err = labelFn(lo, hi)
	}()
	return t
}

// wait blocks until the call has returned and gives its labels, or
// re-raises its panic on the caller's goroutine.
func (t *tranche) wait() ([]synth.QoR, error) {
	<-t.done
	if t.panicked != nil {
		panic(t.panicked)
	}
	return t.qors, t.err
}

// Round is the one training round of Figure 2's incremental cycle:
// class-label the corpus under the freshly fitted determinators, run
// Steps minibatch steps, and measure accuracy. Train runs one per
// scheduled corpus size; the online loop's retrainer runs one per
// trigger on a warm-started copy of the serving network.
type Round struct {
	Space flow.Space
	H, W  int // one-hot encoding shape
	Steps int // minibatch steps per round
	// Holdout, when 2 or more, holds every Holdout-th corpus sample out
	// of training as the evaluation split; otherwise accuracy is
	// measured on the training set.
	Holdout int
	Workers int // accuracy prediction workers (≤0 selects GOMAXPROCS)

	enc [][]float64 // one-hot encodings memoized by corpus position
}

// RoundResult is what one Round.Run measured.
type RoundResult struct {
	Loss  float64        // mean minibatch loss over the round's steps
	Acc   float64        // tr.Net's accuracy on Eval through the f32 engine
	Eval  *train.Dataset // the held-out split, or the training set when nothing is held out
	Train time.Duration  // wall time of the gradient steps
}

// Run trains tr.Net on the corpus flows[i] → model.Class(qors[i]). A
// Round reused across rounds requires the corpus to keep its order (later
// rounds only append), because encodings are memoized by position. ctx
// is checked every 50 steps and after the last; once it is done the
// round stops and returns ctx.Err().
func (r *Round) Run(ctx context.Context, tr *train.Trainer, flows []flow.Flow, qors []synth.QoR, model *label.Model) (RoundResult, error) {
	if err := checkSteps(r.Steps); err != nil {
		return RoundResult{}, err
	}
	trainSet := &train.Dataset{H: r.H, W: r.W, NumCl: model.NumClasses()}
	eval := &train.Dataset{H: r.H, W: r.W, NumCl: model.NumClasses()}
	for i, f := range flows {
		if i == len(r.enc) {
			r.enc = append(r.enc, f.Encode(r.Space, r.H, r.W))
		}
		ds := trainSet
		if r.Holdout >= 2 && i%r.Holdout == r.Holdout-1 {
			ds = eval
		}
		ds.Add(r.enc[i], model.Class(qors[i]))
	}
	if eval.Len() == 0 {
		eval = trainSet
	}
	tr.SetData(trainSet)

	// Sum in step order and divide once, exactly as Trainer.Steps does,
	// so a round's loss is reproducible bit for bit.
	start := time.Now()
	var total float64
	for i := 0; i < r.Steps; i++ {
		if i%50 == 0 {
			if err := ctx.Err(); err != nil {
				return RoundResult{}, err
			}
		}
		loss, err := tr.Step()
		if err != nil {
			return RoundResult{}, err
		}
		total += loss
	}
	res := RoundResult{Loss: total / float64(r.Steps), Eval: eval, Train: time.Since(start)}
	if err := ctx.Err(); err != nil {
		return RoundResult{}, err
	}

	pred, err := nn.NewInferenceNet(tr.Net, r.H, r.W)
	if err != nil {
		return RoundResult{}, err
	}
	res.Acc = train.AccuracyPredictor(pred, eval, r.Workers)
	return res, nil
}
