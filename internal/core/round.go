package core

import (
	"context"
	"fmt"
	"time"

	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/nn"
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

// Round is the one training round of Figure 2's incremental cycle:
// class-label the corpus under the freshly fitted determinators, run
// Steps minibatch steps, and measure accuracy. Framework.Run,
// exp.RunIncremental and the online loop's retrainer all drive it; they
// differ only in where the corpus, the labeling model and the trainer
// come from.
type Round struct {
	Space flow.Space
	H, W  int // one-hot encoding shape
	Steps int // minibatch steps per round
	// Holdout, when 2 or more, holds every Holdout-th corpus sample out
	// of training as the evaluation split; otherwise accuracy is
	// measured on the training set.
	Holdout   int
	Workers   int          // accuracy prediction workers (≤0 selects GOMAXPROCS)
	Precision nn.Precision // inference engine of the accuracy pass

	enc [][]float64 // one-hot encodings memoized by corpus position
}

// RoundResult is what one Round.Run measured.
type RoundResult struct {
	Loss  float64        // mean minibatch loss over the round's steps
	Acc   float64        // tr.Net's accuracy on Eval at the round's precision
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

	pred, err := nn.NewPredictor(tr.Net, r.Precision, r.H, r.W)
	if err != nil {
		return RoundResult{}, err
	}
	res.Acc = train.AccuracyPredictor(pred, eval, r.Workers)
	return res, nil
}
