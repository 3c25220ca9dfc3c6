// Package train provides the mini-batch training loop (the paper trains
// with batch size 5), dataset shuffling and accuracy evaluation for the
// flow-classification CNN. Each Trainer.Step assembles its minibatch
// into one batched N×1×H×W tensor and runs a single batched
// forward/backward through the network; accuracy evaluation streams the
// dataset through the packed f32 engine (nn.InferenceNet).
package train

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"flowgen/internal/nn"
	"flowgen/internal/obs"
	"flowgen/internal/opt"
	"flowgen/internal/tensor"
)

// Dataset is a labeled set of flow images.
type Dataset struct {
	X     [][]float64 // flattened one-hot images
	Y     []int       // class labels
	H, W  int         // image shape
	NumCl int
}

// Add appends one sample. The sample slice is retained, not copied, so
// callers may share encodings across datasets (they are never mutated).
func (d *Dataset) Add(x []float64, y int) {
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.X) }

// Clone returns a shallow copy whose sample order can be shuffled
// independently.
func (d *Dataset) Clone() *Dataset {
	c := *d
	c.X = append([][]float64(nil), d.X...)
	c.Y = append([]int(nil), d.Y...)
	return &c
}

// Shuffle permutes the samples.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(d.Len(), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// Source returns an nn.Source streaming the dataset's samples, so an
// nn.InferenceNet can evaluate the set without materializing one
// dataset-sized tensor. Rows are narrowed to float32, which is exact
// for the 0/1 one-hot flow encodings datasets hold.
func (d *Dataset) Source() nn.Source {
	hw := d.H * d.W
	return func(dst []float32, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := dst[(i-lo)*hw : (i-lo+1)*hw]
			for j, v := range d.X[i] {
				row[j] = float32(v)
			}
		}
	}
}

// Trainer drives mini-batch gradient descent. A warm step allocates
// nothing: the trainer reuses its minibatch tensor, label slice,
// logit-gradient tensor and epoch order, and the layers reuse theirs.
type Trainer struct {
	Net       *nn.Network
	Opt       opt.Optimizer
	BatchSize int
	rng       *rand.Rand
	cursor    int
	order     []int
	data      *Dataset
	params    []*nn.Param // Net's parameters, listed once by NewTrainer
	x, grad   *tensor.Tensor
	labels    []int

	// Every trainer records into the process-wide series: a step
	// duration histogram and the most recent mean batch loss. Processes
	// run one trainer at a time (offline flowtrain, or the loop's
	// retrainer), so the series need no per-trainer label.
	obsStepDur *obs.Histogram
	obsLoss    *obs.Gauge
}

// NewTrainer builds a trainer with the paper's batch size 5.
func NewTrainer(net *nn.Network, o opt.Optimizer, seed int64) *Trainer {
	return &Trainer{
		Net: net, Opt: o, BatchSize: 5, rng: rand.New(rand.NewSource(seed)), params: net.Params(),
		obsStepDur: obs.Default().DurationHistogram("flowgen_train_step_duration_seconds",
			"Wall time of one mini-batch training step (forward + backward + update)."),
		obsLoss: obs.Default().Gauge("flowgen_train_loss",
			"Mean batch loss of the most recent training step."),
	}
}

// SetData (re)binds the training set and resets the epoch order. Called
// again whenever the incremental framework grows the dataset.
func (t *Trainer) SetData(d *Dataset) {
	t.data = d
	t.order = t.order[:0]
	t.cursor = 0
}

func (t *Trainer) refillOrder() {
	n := t.data.Len()
	t.order = slices.Grow(t.order[:0], n)[:n]
	for i := range t.order {
		t.order[i] = i
	}
	t.rng.Shuffle(n, func(i, j int) { t.order[i], t.order[j] = t.order[j], t.order[i] })
	t.cursor = 0
}

// Step runs one mini-batch training step — a single batched forward and
// backward pass — and returns the mean batch loss.
func (t *Trainer) Step() (float64, error) {
	if t.data == nil || t.data.Len() == 0 {
		return 0, fmt.Errorf("train: no data bound")
	}
	defer t.obsStepDur.ObserveSince(time.Now())
	if t.cursor+t.BatchSize > len(t.order) {
		t.refillOrder()
	}
	batch := min(t.BatchSize, t.data.Len())
	x, labels := t.minibatch(t.order[t.cursor : t.cursor+batch])
	t.cursor += batch

	for _, p := range t.params {
		clear(p.Grad)
	}
	logits := t.Net.Forward(x, true)
	if t.grad == nil || !tensor.SameShape(t.grad, logits) {
		t.grad = tensor.New(logits.Shape...)
	}
	loss := nn.SparseSoftmaxCEBatchInto(logits, labels, t.grad)
	t.Net.Backward(t.grad)
	// The backward pass accumulated summed gradients; average them over
	// the batch before the optimizer update.
	opt.ScaleGrads(t.params, 1/float64(batch))
	t.Opt.Step(t.params)
	t.obsLoss.Set(loss)
	return loss, nil
}

// minibatch gathers the samples at idx into the trainer's N×1×H×W
// tensor and label slice.
func (t *Trainer) minibatch(idx []int) (*tensor.Tensor, []int) {
	d := t.data
	if t.x == nil || t.x.Shape[0] != len(idx) || t.x.Shape[2] != d.H || t.x.Shape[3] != d.W {
		t.x = tensor.New(len(idx), 1, d.H, d.W)
	}
	t.labels = slices.Grow(t.labels[:0], len(idx))[:len(idx)]
	hw := d.H * d.W
	for b, i := range idx {
		row := t.x.Data[b*hw : (b+1)*hw]
		clear(row[copy(row, d.X[i]):])
		t.labels[b] = d.Y[i]
	}
	return t.x, t.labels
}

// Steps runs n mini-batch steps and returns the mean loss across them.
func (t *Trainer) Steps(n int) (float64, error) {
	var total float64
	for i := 0; i < n; i++ {
		l, err := t.Step()
		if err != nil {
			return 0, err
		}
		total += l
	}
	return total / float64(n), nil
}

// AccuracyPrec returns the fraction of dataset samples whose argmax
// prediction matches the label. The network is compiled once into the
// packed f32 engine and the dataset streams through it in chunk-sized
// worker buffers (workers ≤0 selects GOMAXPROCS). The Precision
// argument is ignored.
//
// Deprecated: compile with nn.NewInferenceNet and call
// AccuracyPredictor. Kept for bench/labeling.go (see nn.Precision).
func AccuracyPrec(net *nn.Network, d *Dataset, workers int, _ nn.Precision) float64 {
	if d.Len() == 0 {
		return 0
	}
	pred, err := nn.NewInferenceNet(net, d.H, d.W)
	if err != nil {
		panic("train: accuracy prediction failed: " + err.Error())
	}
	return AccuracyPredictor(pred, d, workers)
}

// AccuracyPredictor evaluates dataset accuracy through an already
// compiled engine — the core of every accuracy gate (per-round
// framework evaluation, the continuous-retraining loop's
// candidate-vs-serving comparison). Samples stream into chunk-sized
// worker buffers through Dataset.Source.
func AccuracyPredictor(pred *nn.InferenceNet, d *Dataset, workers int) float64 {
	if d.Len() == 0 {
		return 0
	}
	probs, err := pred.PredictStream(context.Background(), d.Len(), workers, d.Source())
	if err != nil {
		panic("train: accuracy prediction failed: " + err.Error())
	}
	correct := 0
	for i, p := range probs {
		if Argmax(p) == d.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}

// Argmax returns the index of the largest element.
func Argmax(xs []float64) int {
	best, bi := xs[0], 0
	for i, v := range xs[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}
