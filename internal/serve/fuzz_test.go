package serve

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"flowgen/internal/flow"
)

// FuzzReadModel: ReadModel is the trust boundary for model files, which
// flowserve loads at start and its watcher reloads while serving. Any
// bytes give a model or an error, never a panic, and a model it returns
// scores a flow of its own space. The seeds are BootstrapModel's file
// and the probe files that once panicked or loaded.
func FuzzReadModel(f *testing.F) {
	m := BootstrapModel("fuzz")
	f.Add(mutatedFile(f, m, func(*modelSnapshot) {}))
	for _, p := range probeEdits {
		f.Add(mutatedFile(f, m, p.edit))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		one := []flow.Flow{m.Space.Random(rand.New(rand.NewSource(1)))}
		probs, err := m.PredictFlows(context.Background(), one, 1)
		if err != nil {
			t.Fatalf("a model ReadModel accepted fails to score: %v", err)
		}
		if len(probs) != 1 || len(probs[0]) != m.Arch.NumClasses {
			t.Fatalf("scored %d rows of %v, want 1 row of %d classes", len(probs), probs, m.Arch.NumClasses)
		}
	})
}
