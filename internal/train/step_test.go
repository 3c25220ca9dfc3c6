package train

import (
	"math/rand"
	"testing"

	"flowgen/internal/flow"
	"flowgen/internal/nn"
	"flowgen/internal/opt"
)

// raceEnabled reports a race-detector build (race_test.go sets it).
var raceEnabled bool

// warmFastArchTrainer is the training-step workload: FastArch over 150
// seeded one-hot paper-space flows (24×6 one-hot rows reshaped 12×12)
// with seeded labels of seven classes, batch 5, RMSProp, after 100
// warm-up steps.
func warmFastArchTrainer(tb testing.TB) *Trainer {
	tb.Helper()
	space := flow.PaperSpace()
	const h, w, classes = 12, 12, 7
	rng := rand.New(rand.NewSource(1))
	d := &Dataset{H: h, W: w, NumCl: classes}
	for _, f := range space.RandomUnique(rng, 150) {
		d.Add(f.Encode(space, h, w), rng.Intn(classes))
	}
	arch := nn.FastArch(classes)
	o, err := opt.ByName("RMSProp", 1e-3)
	if err != nil {
		tb.Fatal(err)
	}
	tr := NewTrainer(arch.Build(2), o, 3)
	tr.SetData(d)
	if _, err := tr.Steps(100); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// BenchmarkTrainerStep times one warm FastArch training step (forward,
// backward, RMSProp update) with its allocations.
func BenchmarkTrainerStep(b *testing.B) {
	tr := warmFastArchTrainer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTrainerStepAllocations holds a warm step to its allocation
// budget: the layers reuse their outputs, gradients and work buffers,
// and the trainer its minibatch, labels, logit gradient and epoch
// order. Under the race detector only the step's completion is
// checked, as the instrumented runtime allocates on its own.
func TestTrainerStepAllocations(t *testing.T) {
	tr := warmFastArchTrainer(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.2f objects per warm step", allocs)
	if allocs > 4 && !raceEnabled {
		t.Fatalf("a warm training step allocates %.2f objects, budget 4", allocs)
	}
}
