package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/nn"
	"flowgen/internal/opt"
	"flowgen/internal/synth"
	"flowgen/internal/train"
)

func TestSchedule(t *testing.T) {
	for _, tc := range []struct {
		initial, every, total int
		want                  []int
	}{
		{20, 10, 40, []int{20, 30, 40}},
		{20, 15, 40, []int{20, 35, 40}},
		{100, 50, 40, []int{40}},
		{5, 5, 0, nil},
	} {
		got, err := Schedule(tc.initial, tc.every, tc.total)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("Schedule(%d, %d, %d) = %v, %v; want %v", tc.initial, tc.every, tc.total, got, err, tc.want)
		}
	}
	// The paper: 1000 initial, then every 500, up to 10000 labels.
	if got, _ := Schedule(1000, 500, 10000); len(got) != 19 || got[18] != 10000 {
		t.Errorf("paper schedule %v, want 19 rounds ending at 10000", got)
	}
	for _, bad := range [][2]int{{0, 10}, {10, 0}, {-1, 10}} {
		if _, err := Schedule(bad[0], bad[1], 40); err == nil {
			t.Errorf("Schedule(%d, %d, 40) accepted a non-positive size", bad[0], bad[1])
		}
	}
}

// roundWorld is a ten-flow corpus with distinct synthetic QoRs, a
// two-class labeling model and a fresh trainer over a matching net.
func roundWorld(t *testing.T) ([]flow.Flow, []synth.QoR, *label.Model, *train.Trainer, *Round) {
	t.Helper()
	space := flow.NewSpace(flow.DefaultAlphabet, 1)
	flows := space.RandomUnique(rand.New(rand.NewSource(1)), 10)
	qors := make([]synth.QoR, len(flows))
	for i := range qors {
		qors[i] = synth.QoR{Area: float64(i)}
	}
	model, err := label.Fit(qors, []synth.Metric{synth.MetricArea}, []float64{50})
	if err != nil {
		t.Fatal(err)
	}
	h, w := EncodeShape(space)
	arch := nn.FastArch(2)
	arch.InH, arch.InW = h, w
	o, err := opt.ByName("RMSProp", 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	tr := train.NewTrainer(arch.Build(1), o, 2)
	return flows, qors, model, tr, &Round{Space: space, H: h, W: w, Steps: 3, Precision: nn.F64}
}

// TestRoundHoldout: a stride holds every k-th sample out as the
// evaluation split; without one, accuracy is measured on the training
// set, whose encodings are memoized by corpus position.
func TestRoundHoldout(t *testing.T) {
	flows, qors, model, tr, r := roundWorld(t)
	r.Holdout = 5
	rr, err := r.Run(context.Background(), tr, flows, qors, model)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Eval.Len() != 2 || rr.Eval.Y[0] != model.Class(qors[4]) || rr.Eval.Y[1] != model.Class(qors[9]) {
		t.Fatalf("held-out split %v, want samples 4 and 9", rr.Eval.Y)
	}
	if rr.Acc < 0 || rr.Acc > 1 || rr.Loss <= 0 {
		t.Fatalf("round result %+v", rr)
	}

	_, _, _, tr, r = roundWorld(t)
	first, err := r.Run(context.Background(), tr, flows[:6], qors[:6], model)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := r.Run(context.Background(), tr, flows, qors, model)
	if err != nil {
		t.Fatal(err)
	}
	if first.Eval.Len() != 6 || grown.Eval.Len() != 10 {
		t.Fatalf("eval sets of %d and %d samples, want the training sets (6, 10)", first.Eval.Len(), grown.Eval.Len())
	}
	if &first.Eval.X[0][0] != &grown.Eval.X[0][0] {
		t.Fatal("a later round re-encoded a flow it had already encoded")
	}
}
