package main

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"flowgen/internal/circuits"
	"flowgen/internal/flow"
	"flowgen/internal/loop"
	"flowgen/internal/nn"
	"flowgen/internal/serve"
	"flowgen/internal/synth"
)

// fakeWeb records whether (and when) HTTP shutdown happened relative
// to the loop drain.
type fakeWeb struct {
	shutdownAt time.Time
	calls      int
}

func (f *fakeWeb) Shutdown(context.Context) error {
	f.calls++
	f.shutdownAt = time.Now()
	return nil
}

// testWorld builds the smallest live serving world: one in-memory
// model over the real alphabet at m=1 (true-QoR labeling on the real
// engine stays fast) plus a journaled loop.
func testWorld(t *testing.T, journal string) (*serve.Registry, *serve.Server, *loop.Loop) {
	t.Helper()
	space := flow.NewSpace(flow.DefaultAlphabet, 1)
	arch := nn.FastArch(2)
	arch.InH, arch.InW = space.N(), space.Length()
	reg := serve.NewRegistry()
	reg.Register(&serve.Model{Name: "live", Space: space, Arch: arch, Net: arch.Build(1)})
	d, err := circuits.ByName("alu8")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := loop.New(reg, synth.NewEngine(d.Build(), space), loop.Config{
		Percentiles:  []float64{50},
		LabelWorkers: 2,
		LabelBatch:   8,
		ExploreBatch: 4,
		GatherWait:   5 * time.Millisecond,
		RetrainEvery: 1 << 30, // never retrain: this test is about shutdown
		JournalPath:  journal,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	scfg := serve.DefaultServerConfig()
	scfg.Workers = 1
	srv := serve.NewServer(reg, scfg)
	srv.SetLoop(lp)
	return reg, srv, lp
}

// TestShutdownSequenceLosesNoLabels is the ordered-shutdown contract:
// stop HTTP intake first, then drain the loop (flush the labeler,
// fsync the journal), then close the journal — and after all of it,
// every label the loop accepted is replayable from disk.
// The pre-fix defer ordering closed the journal while labeling was
// still in flight, which could drop accepted labels on SIGTERM.
func TestShutdownSequenceLosesNoLabels(t *testing.T) {
	journal := t.TempDir() + "/labels.journal"
	_, srv, lp := testWorld(t, journal)

	loopCtx, stopLoop := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() { defer close(loopDone); lp.Run(loopCtx) }()

	// Feed observations until the labeler has demonstrably labeled some
	// (exploration tops up the rest), so the drain has real in-flight
	// work to flush.
	space := flow.NewSpace(flow.DefaultAlphabet, 1)
	rng := rand.New(rand.NewSource(11))
	for deadline := time.Now().Add(10 * time.Second); lp.Status().Labeled < 8; {
		if time.Now().After(deadline) {
			t.Fatalf("labeler made no progress: %+v", lp.Status())
		}
		lp.Observe(context.Background(), space.RandomUnique(rng, 4))
		time.Sleep(10 * time.Millisecond)
	}

	web := &fakeWeb{}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := shutdownSequence(ctx, web, srv, lp, stopLoop); err != nil {
		t.Fatalf("shutdownSequence: %v", err)
	}
	if web.calls != 1 {
		t.Fatalf("HTTP shutdown called %d times, want 1", web.calls)
	}
	select {
	case <-loopDone:
	case <-time.After(5 * time.Second):
		t.Fatal("loop goroutines still running after shutdown")
	}

	st := lp.Status()
	if st.Accepting {
		t.Fatal("loop still accepting after shutdown")
	}
	if st.Persisted != st.DatasetSize {
		t.Fatalf("persisted %d of %d accepted labels: shutdown dropped labels",
			st.Persisted, st.DatasetSize)
	}

	// The journal must replay exactly what was accepted.
	s, err := loop.OpenStore(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != st.DatasetSize {
		t.Fatalf("journal replays %d labels, loop accepted %d", s.Len(), st.DatasetSize)
	}

	// Idempotent: a second drain-and-close pass must not error or panic.
	if err := shutdownSequence(ctx, web, srv, nil, nil); err != nil {
		t.Fatalf("repeat shutdownSequence: %v", err)
	}
}

// TestShutdownSequenceWithoutLoop covers the -loop-less server: the
// sequence must run cleanly with nil loop and cancel func.
func TestShutdownSequenceWithoutLoop(t *testing.T) {
	space := flow.NewSpace(flow.DefaultAlphabet, 1)
	arch := nn.FastArch(2)
	arch.InH, arch.InW = space.N(), space.Length()
	reg := serve.NewRegistry()
	reg.Register(&serve.Model{Name: "live", Space: space, Arch: arch, Net: arch.Build(1)})
	srv := serve.NewServer(reg, serve.DefaultServerConfig())

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	web := &fakeWeb{}
	if err := shutdownSequence(ctx, web, srv, nil, nil); err != nil {
		t.Fatalf("shutdownSequence without loop: %v", err)
	}
	if web.calls != 1 {
		t.Fatalf("HTTP shutdown called %d times, want 1", web.calls)
	}
}
