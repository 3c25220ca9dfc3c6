package synth

import (
	"math/rand"
	"sync"
	"testing"

	"flowgen/internal/circuits"
	"flowgen/internal/flow"
)

func smallSpace() flow.Space {
	return flow.NewSpace(flow.DefaultAlphabet, 1) // L=6, fast
}

func TestEvaluateProducesSaneQoR(t *testing.T) {
	e := NewEngine(circuits.ALU(8), smallSpace())
	rng := rand.New(rand.NewSource(1))
	f := e.Space.Random(rng)
	q, err := e.Evaluate(f)
	if err != nil {
		t.Fatal(err)
	}
	if q.Area <= 0 || q.Delay <= 0 || q.Gates <= 0 || q.Ands <= 0 || q.Levels <= 0 {
		t.Fatalf("degenerate QoR: %+v", q)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	e := NewEngine(circuits.ALU(8), smallSpace())
	rng := rand.New(rand.NewSource(2))
	f := e.Space.Random(rng)
	q1, err := e.Evaluate(f)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.Evaluate(f)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatalf("nondeterministic QoR: %+v vs %+v", q1, q2)
	}
}

func TestEvaluateRejectsInvalidFlow(t *testing.T) {
	e := NewEngine(circuits.ALU(8), smallSpace())
	if _, err := e.Evaluate(flow.Flow{Indices: []int{0, 0, 0, 0, 0, 0}}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestEvaluateAllMatchesSequential(t *testing.T) {
	e := NewEngine(circuits.ALU(8), smallSpace())
	e.Workers = 4
	rng := rand.New(rand.NewSource(3))
	flows := e.Space.RandomUnique(rng, 8)
	batch, err := e.EvaluateAll(flows, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range flows {
		q, err := e.Evaluate(f)
		if err != nil {
			t.Fatal(err)
		}
		if q != batch[i] {
			t.Fatalf("flow %d: parallel %+v != sequential %+v", i, batch[i], q)
		}
	}
}

func TestEvaluateAllProgress(t *testing.T) {
	e := NewEngine(circuits.ALU(8), smallSpace())
	rng := rand.New(rand.NewSource(4))
	flows := e.Space.RandomUnique(rng, 5)
	// progress runs concurrently from worker goroutines (EvaluateAll's
	// contract), so the running maximum is guarded.
	var mu sync.Mutex
	max := 0
	_, err := e.EvaluateAll(flows, func(done int) {
		mu.Lock()
		defer mu.Unlock()
		if done > max {
			max = done
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if max != 5 {
		t.Fatalf("progress reported max %d, want 5", max)
	}
	if e.Evaluations() < 5 {
		t.Fatalf("evaluations = %d", e.Evaluations())
	}
}

func TestFlowsChangeQoR(t *testing.T) {
	// Different flows must produce a QoR spread on a real design (the
	// paper's core premise).
	e := NewEngine(circuits.MiniAES(2), flow.NewSpace(flow.DefaultAlphabet, 2))
	rng := rand.New(rand.NewSource(5))
	flows := e.Space.RandomUnique(rng, 6)
	qors, err := e.EvaluateAll(flows, nil)
	if err != nil {
		t.Fatal(err)
	}
	areas := map[float64]bool{}
	for _, q := range qors {
		areas[q.Area] = true
	}
	if len(areas) < 2 {
		t.Fatalf("all %d flows produced identical area %v", len(flows), qors[0].Area)
	}
}

func TestMetricGet(t *testing.T) {
	q := QoR{Area: 10, Delay: 20}
	if q.Get(MetricArea) != 10 || q.Get(MetricDelay) != 20 {
		t.Fatal("metric selector broken")
	}
	if MetricArea.String() != "area" || MetricDelay.String() != "delay" {
		t.Fatal("metric names")
	}
}

func BenchmarkEvaluateALU8FullFlow(b *testing.B) {
	e := NewEngine(circuits.ALU(8), flow.PaperSpace())
	rng := rand.New(rand.NewSource(1))
	f := e.Space.Random(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(f); err != nil {
			b.Fatal(err)
		}
	}
}
