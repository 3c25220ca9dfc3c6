package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"flowgen/internal/circuits"
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
	return flows, qors, model, tr, &Round{Space: space, H: h, W: w, Steps: 3}
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

// alu8Labels holds tinyConfig's training flows, drawn as Framework.Run
// draws them, and their alu8 labels, computed once per test binary.
var alu8Labels struct {
	once  sync.Once
	flows []flow.Flow
	qors  []synth.QoR
	err   error
}

func labeledALU8(t *testing.T) (Config, []flow.Flow, []synth.QoR) {
	t.Helper()
	cfg := tinyConfig()
	alu8Labels.once.Do(func() {
		alu8Labels.flows = cfg.Space.RandomUnique(rand.New(rand.NewSource(cfg.Seed)), cfg.TrainFlows)
		alu8Labels.qors, alu8Labels.err = synth.NewEngine(circuits.ALU(8), cfg.Space).EvaluateAll(alu8Labels.flows, nil)
	})
	if alu8Labels.err != nil {
		t.Fatal(alu8Labels.err)
	}
	return cfg, alu8Labels.flows, alu8Labels.qors
}

// TestLabelAheadMatchesSequential: labeling a tranche while the previous
// round trains changes no number. Labels that arrive at once and labels
// that arrive only after the previous round's hook has returned (the
// sequential order) give the same rounds, labels and weights bit for bit.
func TestLabelAheadMatchesSequential(t *testing.T) {
	cfg, flows, qors := labeledALU8(t)
	run := func(labelFn func(lo, hi int) ([]synth.QoR, error), hook func(*Result)) (*Result, []byte) {
		t.Helper()
		res, err := Train(cfg, flows, labelFn, hook)
		if err != nil {
			t.Fatal(err)
		}
		var weights bytes.Buffer
		if err := res.Net.SaveWeights(&weights); err != nil {
			t.Fatal(err)
		}
		return res, weights.Bytes()
	}
	ahead, aheadWeights := run(func(lo, hi int) ([]synth.QoR, error) {
		return qors[lo:hi], nil
	}, func(*Result) {})

	// One token per returned hook; tranche k > 0 takes round k-1's.
	hooked := make(chan struct{}, 3)
	seq, seqWeights := run(func(lo, hi int) ([]synth.QoR, error) {
		if lo > 0 {
			<-hooked
		}
		return qors[lo:hi], nil
	}, func(*Result) { hooked <- struct{}{} })

	if len(ahead.Rounds) != 3 || len(seq.Rounds) != 3 {
		t.Fatalf("%d and %d rounds, want 3", len(ahead.Rounds), len(seq.Rounds))
	}
	for i, a := range ahead.Rounds {
		s := seq.Rounds[i]
		if a.Labeled != s.Labeled || a.Steps != s.Steps || a.Loss != s.Loss || a.TrainAcc != s.TrainAcc {
			t.Errorf("round %d: label-ahead %+v, sequential %+v", i, a, s)
		}
	}
	if !slices.Equal(ahead.TrainQoRs, qors) || !slices.Equal(seq.TrainQoRs, qors) {
		t.Error("the training labels differ from the tranches labelFn returned")
	}
	if !bytes.Equal(aheadWeights, seqWeights) {
		t.Error("label-ahead and sequential runs trained different weights")
	}
}

// TestLabelAheadCallsInOrder: labelFn is called once per tranche, in
// order, never twice at once, and no call runs once Train has returned.
// The calls label through one engine, as Framework.Run's do, while the
// rounds train.
func TestLabelAheadCallsInOrder(t *testing.T) {
	cfg, flows, qors := labeledALU8(t)
	engine := synth.NewEngine(circuits.ALU(8), cfg.Space)
	var mu sync.Mutex
	var calls [][2]int
	var inFlight, overlaps, returned atomic.Int32
	res, err := Train(cfg, flows, func(lo, hi int) ([]synth.QoR, error) {
		if inFlight.Add(1) != 1 {
			overlaps.Add(1)
		}
		defer inFlight.Add(-1)
		defer returned.Add(1)
		mu.Lock()
		calls = append(calls, [2]int{lo, hi})
		mu.Unlock()
		return engine.EvaluateAll(flows[lo:hi], nil)
	}, func(*Result) {})
	done, running := returned.Load(), inFlight.Load()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := [][2]int{{0, 20}, {20, 30}, {30, 40}}; !slices.Equal(calls, want) {
		t.Fatalf("labelFn calls %v, want %v", calls, want)
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d labelFn calls started while another ran", n)
	}
	if done != 3 || running != 0 {
		t.Errorf("when Train returned, %d calls had returned and %d were running; want 3 and 0", done, running)
	}
	if !slices.Equal(res.TrainQoRs, qors) {
		t.Error("labels from the engine differ from a separate engine's")
	}
}

// TestLabelAheadFailures: a failing tranche ends Train after the
// previous round's hook, with the tranche's error or its panic re-raised
// on the caller's goroutine; a panicking hook ends it only once the
// tranche in flight has returned.
func TestLabelAheadFailures(t *testing.T) {
	cfg, flows, qors := labeledALU8(t)
	var hooks int
	hook := func(*Result) { hooks++ }
	failSecond := func(fail func(lo, hi int) ([]synth.QoR, error)) func(lo, hi int) ([]synth.QoR, error) {
		return func(lo, hi int) ([]synth.QoR, error) {
			if lo == 20 {
				return fail(lo, hi)
			}
			return qors[lo:hi], nil
		}
	}
	// recovered runs Train and returns what it panicked with.
	recovered := func(labelFn func(lo, hi int) ([]synth.QoR, error), hook func(*Result)) (p any) {
		defer func() { p = recover() }()
		Train(cfg, flows, labelFn, hook)
		return nil
	}

	errSecond := errors.New("second tranche failed")
	_, err := Train(cfg, flows, failSecond(func(int, int) ([]synth.QoR, error) { return nil, errSecond }), hook)
	if !errors.Is(err, errSecond) || hooks != 1 {
		t.Errorf("Train returned %v after %d hooks, want %v after 1", err, hooks, errSecond)
	}

	hooks = 0
	p := recovered(failSecond(func(int, int) ([]synth.QoR, error) { panic("second tranche panicked") }), hook)
	if p != "second tranche panicked" || hooks != 1 {
		t.Errorf("Train panicked with %v after %d hooks, want the tranche's panic after 1", p, hooks)
	}

	// The second tranche is in flight when round 1's hook panics: it
	// returns only once the hook has started.
	var returned atomic.Int32
	hookStarted := make(chan struct{})
	p = recovered(func(lo, hi int) ([]synth.QoR, error) {
		defer returned.Add(1)
		if lo == 20 {
			<-hookStarted
		}
		return qors[lo:hi], nil
	}, func(*Result) {
		close(hookStarted)
		panic("hook panicked")
	})
	if n := returned.Load(); p != "hook panicked" || n != 2 {
		t.Errorf("Train panicked with %v once %d tranches had returned, want the hook's panic after 2", p, n)
	}
}

// TestLabelAheadNoFlows: an empty training set is an empty schedule,
// and Train returns an empty result without labeling or training.
func TestLabelAheadNoFlows(t *testing.T) {
	cfg := tinyConfig()
	res, err := Train(cfg, nil, func(lo, hi int) ([]synth.QoR, error) {
		t.Errorf("labelFn(%d, %d) called without flows", lo, hi)
		return nil, nil
	}, func(*Result) { t.Error("hook called without flows") })
	if err != nil {
		t.Fatal(err)
	}
	if res.Net == nil || len(res.Rounds) != 0 || len(res.TrainQoRs) != 0 || res.Model != nil {
		t.Fatalf("Train without flows returned %+v", res)
	}
}
