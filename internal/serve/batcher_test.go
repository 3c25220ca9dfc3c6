package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowgen/internal/flow"
	"flowgen/internal/nn"
	"flowgen/internal/train"
)

// testModel builds a small deterministic model over a 4-letter m=2
// space (4×8 encodings — large enough for the FastArch pooling stack,
// small enough that race-enabled concurrency tests stay fast).
func testModel(name string, seed int64) *Model {
	space := flow.NewSpace([]string{"a", "b", "c", "d"}, 2)
	arch := nn.FastArch(5)
	arch.InH, arch.InW = 4, 8
	return &Model{Name: name, Space: space, Arch: arch, Net: arch.Build(seed)}
}

// directProbs scores flows through the model's own direct streamed path
// (the serving layer's ground truth — precision-routed, so batcher
// responses must be bit-identical to it under either engine).
func directProbs(m *Model, flows []flow.Flow) [][]float64 {
	probs, err := m.PredictFlows(context.Background(), flows, 1)
	if err != nil {
		panic(err)
	}
	return probs
}

func sameProbs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatcherMatchesDirect hammers one batcher from many goroutines and
// requires every response to be bit-identical to the direct batched
// scoring of the same flow — and the traffic to have actually coalesced
// into multi-request batches. Coalescing is made certain, not left to
// scheduling: the first flush holds the predictor until every client's
// first request is queued behind it. It runs against both serving
// engines: the packed f32 snapshot (the default) and f64 inference clones.
func TestBatcherMatchesDirect(t *testing.T) {
	for _, prec := range []nn.Precision{nn.F32, nn.F64} {
		t.Run(prec.String(), func(t *testing.T) {
			m := testModel("m", 1)
			m.Precision = prec
			const clients, perClient = 24, 8
			flows := m.Space.RandomUnique(rand.New(rand.NewSource(2)), clients*perClient)
			want := directProbs(m, flows)

			var b *Batcher
			var gate sync.Once
			b = NewBatcher(func() (*Model, error) {
				gate.Do(func() {
					for b.Stats().Requests < clients {
						time.Sleep(100 * time.Microsecond)
					}
				})
				return m, nil
			}, BatcherConfig{MaxBatch: 32, QueueCap: 512, Workers: 1})
			defer b.Close()

			errs := make(chan error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						idx := c*perClient + i
						pred, err := b.Submit(context.Background(), m.EncodeFlow(flows[idx]))
						if err != nil {
							errs <- fmt.Errorf("client %d flow %d: %v", c, i, err)
							return
						}
						if !sameProbs(pred.Probs, want[idx]) {
							errs <- fmt.Errorf("client %d flow %d: batched response differs from direct scoring", c, i)
							return
						}
						if pred.Class != train.Argmax(want[idx]) || pred.Model != m {
							errs <- fmt.Errorf("client %d flow %d: wrong class or model", c, i)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			st := b.Stats()
			if st.Requests != clients*perClient || st.BatchedFlows != clients*perClient {
				t.Fatalf("stats lost requests: %+v", st)
			}
			if st.Batches >= st.Requests {
				t.Fatalf("no coalescing happened: %d batches for %d requests", st.Batches, st.Requests)
			}
			if st.MaxBatch < 2 {
				t.Fatalf("never built a multi-request batch: %+v", st)
			}
		})
	}
}

// TestBatcherWorkConserving pins the scheduling rule: a lone request is
// flushed alone, without waiting for companions, and requests that
// arrive while the predictor is busy form the next batches, split at
// MaxBatch. The first flush blocks in the resolver until released, so
// the batch boundaries are exact.
func TestBatcherWorkConserving(t *testing.T) {
	const maxBatch, queued = 4, 10
	m := testModel("m", 1)
	flows := m.Space.RandomUnique(rand.New(rand.NewSource(5)), 1+queued)
	want := directProbs(m, flows)

	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	b := NewBatcher(func() (*Model, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return m, nil
	}, BatcherConfig{MaxBatch: maxBatch, QueueCap: 64, Workers: 1})
	defer b.Close()

	errs := make(chan error, 1+queued)
	submit := func(i int) {
		pred, err := b.Submit(context.Background(), m.EncodeFlow(flows[i]))
		switch {
		case err != nil:
			errs <- fmt.Errorf("flow %d: %v", i, err)
		case !sameProbs(pred.Probs, want[i]):
			errs <- fmt.Errorf("flow %d: response differs from direct scoring", i)
		default:
			errs <- nil
		}
	}
	go submit(0)
	<-entered // the lone request is being flushed, alone
	for i := 1; i <= queued; i++ {
		go submit(i)
	}
	for b.Stats().Requests < 1+queued {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	for i := 0; i < 1+queued; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// One batch of 1, then the 10 queued requests as 4, 4 and 2.
	st := b.Stats()
	if wantBatches := int64(1 + (queued+maxBatch-1)/maxBatch); st.Batches != wantBatches {
		t.Fatalf("%d batches, want %d: %+v", st.Batches, wantBatches, st)
	}
	if st.MaxBatch != maxBatch || st.BatchedFlows != 1+queued {
		t.Fatalf("want largest batch %d over %d flows: %+v", maxBatch, 1+queued, st)
	}
}

// TestBatcherCancellationAndQueueFull drives the failure paths
// deterministically by blocking the model resolver: a queued request
// can be cancelled while waiting, submissions beyond QueueCap are shed
// with ErrQueueFull, and pre-cancelled contexts never enqueue.
func TestBatcherCancellationAndQueueFull(t *testing.T) {
	m := testModel("m", 1)
	release := make(chan struct{})
	b := NewBatcher(func() (*Model, error) { <-release; return m, nil },
		BatcherConfig{MaxBatch: 1, QueueCap: 2, Workers: 1})
	defer b.Close()

	enc := m.EncodeFlow(m.Space.Random(rand.New(rand.NewSource(3))))

	// Pre-cancelled context: rejected before touching the queue.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := b.Submit(done, enc); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled submit: want Canceled, got %v", err)
	}

	// First request is taken by the scheduler and blocks in the
	// resolver; two more fill the queue; the next sheds.
	type subResult struct {
		pred Prediction
		err  error
	}
	results := make([]chan subResult, 3)
	ctxs := make([]context.Context, 3)
	cancels := make([]context.CancelFunc, 3)
	for i := range results {
		results[i] = make(chan subResult, 1)
		ctxs[i], cancels[i] = context.WithCancel(context.Background())
		go func(i int) {
			p, err := b.Submit(ctxs[i], enc)
			results[i] <- subResult{p, err}
		}(i)
		// Wait until the request is accepted (queued or in flight)
		// before issuing the next, so occupancy is deterministic.
		for b.Stats().Requests < int64(i+1) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if _, err := b.Submit(context.Background(), enc); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}

	// Cancel the last queued request while it waits, then release the
	// resolver: the cancelled one returns its context error, the others
	// are scored.
	cancels[2]()
	if r := <-results[2]; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("queued-then-cancelled submit: want Canceled, got %v", r.err)
	}
	close(release)
	for i := 0; i < 2; i++ {
		r := <-results[i]
		if r.err != nil {
			t.Fatalf("request %d after release: %v", i, r.err)
		}
	}
	st := b.Stats()
	if st.Rejected != 1 || st.Cancelled != 2 {
		t.Fatalf("want 1 rejection and 2 cancellations, got %+v", st)
	}
	if st.BatchedFlows != 2 {
		t.Fatalf("want 2 scored flows (cancelled one skipped), got %+v", st)
	}

	// Closing fails later submissions.
	b.Close()
	if _, err := b.Submit(context.Background(), enc); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close: want ErrClosed, got %v", err)
	}
}

// TestBatcherEncodingMismatch checks per-request validation against the
// resolved model's input shape.
func TestBatcherEncodingMismatch(t *testing.T) {
	m := testModel("m", 1)
	b := NewBatcher(func() (*Model, error) { return m, nil },
		BatcherConfig{MaxBatch: 4, QueueCap: 8, Workers: 1})
	defer b.Close()
	if _, err := b.Submit(context.Background(), make([]float64, 3)); err == nil {
		t.Fatal("want an encoding-size error")
	}
}

// TestHotReloadDuringTraffic swaps model versions through a registry
// while clients hammer the batcher, asserting zero downtime: every
// response is bit-identical to the direct scoring of whichever version
// it reports, and the final version's responses eventually flow. It
// runs under both engines — a reload must preserve the registered
// precision, so f64 responses stay f64 across every swap.
func TestHotReloadDuringTraffic(t *testing.T) {
	for _, prec := range []nn.Precision{nn.F32, nn.F64} {
		t.Run(prec.String(), func(t *testing.T) {
			testHotReloadDuringTraffic(t, prec)
		})
	}
}

func testHotReloadDuringTraffic(t *testing.T, prec nn.Precision) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.flowmodel")
	// Two weight sets cycling through the same file.
	v1, v2 := testModel("m", 1), testModel("m", 2)
	v1.Precision, v2.Precision = prec, prec
	if err := SaveModel(path, v1); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	loaded, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Precision = prec
	reg.Register(loaded)

	const clients, perClient, reloadN = 8, 40, 6
	flows := v1.Space.RandomUnique(rand.New(rand.NewSource(4)), perClient)
	// Expected probabilities per weight set (versions alternate 1,2).
	wantBySeed := [][][]float64{directProbs(v1, flows), directProbs(v2, flows)}

	b := NewBatcher(func() (*Model, error) { return reg.Get("m") },
		BatcherConfig{MaxBatch: 16, QueueCap: 1024, Workers: 1})
	defer b.Close()

	errs := make(chan error, clients+1)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				pred, err := b.Submit(context.Background(), v1.EncodeFlow(flows[i]))
				if err != nil {
					errs <- fmt.Errorf("client %d flow %d: %v", c, i, err)
					return
				}
				want := wantBySeed[(pred.Model.Version+1)%2][i]
				if !sameProbs(pred.Probs, want) {
					errs <- fmt.Errorf("client %d flow %d: response does not match version %d scoring",
						c, i, pred.Model.Version)
					return
				}
			}
		}(c)
	}
	// Reloader: alternate the weight sets on disk and hot-swap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloadN; i++ {
			src := v2
			if i%2 == 1 {
				src = v1
			}
			if err := SaveModel(path, src); err != nil {
				errs <- err
				return
			}
			if _, err := reg.Reload("m"); err != nil {
				errs <- err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := reg.Reloads(); got != reloadN {
		t.Fatalf("registry counted %d reloads, want %d", got, reloadN)
	}
	cur, err := reg.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != reloadN+1 {
		t.Fatalf("final version %d, want %d", cur.Version, reloadN+1)
	}
	if cur.Precision != prec {
		t.Fatalf("reload dropped the precision: final model serves %v, want %v", cur.Precision, prec)
	}
	// Traffic after the last swap serves the final weights.
	pred, err := b.Submit(context.Background(), v1.EncodeFlow(flows[0]))
	if err != nil {
		t.Fatal(err)
	}
	if pred.Model.Version != reloadN+1 {
		t.Fatalf("post-reload request served by v%d, want v%d", pred.Model.Version, reloadN+1)
	}
	if !sameProbs(pred.Probs, wantBySeed[(pred.Model.Version+1)%2][0]) {
		t.Fatal("post-reload response does not match the final weights")
	}
	_ = os.Remove(path)
}
