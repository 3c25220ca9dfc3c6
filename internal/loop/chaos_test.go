package loop

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flowgen/internal/fault"
	"flowgen/internal/serve"
	"flowgen/internal/synth"
)

// TestChaosEndToEnd drives the full serve → loop → storage pipeline
// under live traffic with every background fault class armed at once —
// journal write errors deep enough to degrade the store, latency
// injected into the predictor's batch flushes, panics in the labeler,
// and an injected retrain failure — and requires that:
//
//   - not a single well-formed request fails;
//   - the serving model's version never regresses, and at least one
//     retrained version still publishes through the chaos;
//   - the store degrades and then recovers (visible in the counters);
//   - POST /v1/loop/drain flushes and fsyncs, /readyz flips to 503,
//     and the journal replays every accepted label.
//
// Run with -race: this is exactly the interleaving soup the resilience
// layer exists for.
func TestChaosEndToEnd(t *testing.T) {
	defer fault.Reset()
	reg, eng, _ := testLoopWorld(t)
	cfg := testLoopConfig()
	cfg.JournalPath = filepath.Join(t.TempDir(), "labels.journal")
	cfg.JournalRetry = fastRetry()
	// Keep the intake queue short: true-QoR labeling on the real engine
	// is the bottleneck, and a deep backlog would turn the final drain
	// into a minutes-long labeling marathon. Overflow is dropped at
	// intake (visible in Dropped), which the loss contract permits —
	// only ACCEPTED labels must survive.
	cfg.QueueCap = 32
	lp, err := New(reg, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Close()

	scfg := serve.DefaultServerConfig()
	scfg.Batcher.Workers = 1
	scfg.RequestTimeout = 90 * time.Second // the drain request labels the tail
	srv := serve.NewServer(reg, scfg)
	defer srv.Close()
	srv.SetLoop(lp)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Every fault class at once, n-bounded so the system must ride
	// through AND come out the other side: 12 journal write failures
	// (retry budget is 3, so the store must degrade and later recover),
	// two labeler panics, one failed retrain round, and probabilistic
	// 3ms stalls in the predictor's batch flushes.
	if err := fault.Set(
		"loop.journal.append=error,n=12;"+
			"loop.labeler=panic,n=2;"+
			"loop.retrain=error,n=1;"+
			"serve.batcher.flush=sleep,d=3ms,p=0.3", 42); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loopDone := make(chan struct{})
	go func() { defer close(loopDone); lp.Run(ctx) }()

	stop := make(chan struct{})
	fail := make(chan string, 64)
	var wg sync.WaitGroup
	space := lp.space
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + c)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var code int
				var body string
				switch i % 3 {
				case 0:
					// Single-flow predicts ride the micro-batcher, where
					// the latency fault lives.
					code, body = post(t, ts.URL+"/v1/predict",
						map[string]any{"flows": []string{space.Random(rng).String(space)}})
				case 1:
					texts := make([]string, 3)
					for j := range texts {
						texts[j] = space.Random(rng).String(space)
					}
					code, body = post(t, ts.URL+"/v1/predict", map[string]any{"flows": texts})
				default:
					code, body = post(t, ts.URL+"/v1/recommend",
						map[string]any{"top_k": 2, "pool": 30, "seed": rng.Int63()})
				}
				if code != http.StatusOK {
					select {
					case fail <- fmt.Sprintf("well-formed request failed under chaos: %d %s", code, body):
					default:
					}
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(c)
	}

	// The serving version must only ever move forward.
	maxVersion := 1
	checkVersion := func() {
		t.Helper()
		m, err := reg.Get("live")
		if err != nil {
			t.Fatal(err)
		}
		if m.Version < maxVersion {
			t.Fatalf("version regressed under chaos: %d after %d", m.Version, maxVersion)
		}
		maxVersion = m.Version
	}

	// Ride the chaos until every injected failure has demonstrably
	// happened and been absorbed: a publish landed, the store degraded
	// and recovered, the labeler panicked and kept going.
	deadline := time.After(2 * time.Minute)
	for {
		checkVersion()
		st := lp.Status()
		if maxVersion >= 2 && st.Recoveries >= 1 && st.LabelerPanics >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("chaos not absorbed before deadline: version=%d status=%+v", maxVersion, st)
		case msg := <-fail:
			t.Fatal(msg)
		case <-time.After(20 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	st := lp.Status()
	if st.JournalErrors < 3 {
		t.Fatalf("JournalErrors = %d, want ≥3 (the injected faults must be visible)", st.JournalErrors)
	}
	if st.Degraded {
		t.Fatalf("store still degraded after the fault budget drained: %+v", st)
	}

	// Let the labeler work the remaining backlog down to a round or so
	// before draining, so the drain request itself only has to flush
	// the tail within its deadline.
	for settle := time.After(90 * time.Second); lp.Status().Queued > cfg.LabelBatch; {
		select {
		case <-settle:
			t.Fatalf("labeler never worked down the backlog: %+v", lp.Status())
		case <-time.After(50 * time.Millisecond):
		}
	}

	// Readiness flips with the drain, liveness never does.
	if code := getCode(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", code)
	}
	code, body := post(t, ts.URL+"/v1/loop/drain", map[string]any{})
	if code != http.StatusOK {
		t.Fatalf("/v1/loop/drain: %d %s", code, body)
	}
	var dr struct {
		Drained       bool `json:"drained"`
		Queued        int  `json:"queued"`
		DatasetSize   int  `json:"dataset_size"`
		Persisted     int  `json:"persisted"`
		JournalSynced bool `json:"journal_synced"`
	}
	if err := json.Unmarshal([]byte(body), &dr); err != nil {
		t.Fatalf("drain response %q: %v", body, err)
	}
	if !dr.Drained || dr.Queued != 0 || !dr.JournalSynced {
		t.Fatalf("drain result %+v", dr)
	}
	if dr.Persisted != dr.DatasetSize {
		t.Fatalf("drain left %d of %d labels unpersisted", dr.DatasetSize-dr.Persisted, dr.DatasetSize)
	}
	if code := getCode(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain: %d, want 503", code)
	}
	if code := getCode(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after drain: %d, want 200 (liveness is not readiness)", code)
	}

	cancel()
	<-loopDone
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}

	// Zero accepted labels lost: the journal replays exactly the corpus.
	s, err := OpenStore(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != dr.DatasetSize {
		t.Fatalf("journal replays %d labels, loop accepted %d", s.Len(), dr.DatasetSize)
	}
}

// TestChaosRegistryLoadFailureKeepsServing injects a model-load fault
// into a reload: the endpoint must fail loudly, the registered version
// must not change, and predictions must keep flowing from the previous
// snapshot.
func TestChaosRegistryLoadFailureKeepsServing(t *testing.T) {
	defer fault.Reset()
	path := filepath.Join(t.TempDir(), "live.flowmodel")
	boot := serve.BootstrapModel("live")
	if err := serve.SaveModel(path, boot); err != nil {
		t.Fatal(err)
	}
	m, err := serve.LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Name = "live"
	reg := serve.NewRegistry()
	reg.Register(m)
	srv := serve.NewServer(reg, serve.DefaultServerConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := fault.Set("serve.registry.load=error", 1); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, ts.URL+"/v1/models/live/reload", map[string]any{})
	if code == http.StatusOK {
		t.Fatalf("reload with a load fault returned 200: %s", body)
	}
	got, err := reg.Get("live")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 {
		t.Fatalf("failed reload changed the version to %d", got.Version)
	}
	if reg.ReloadFails() != 1 {
		t.Fatalf("ReloadFails = %d, want 1", reg.ReloadFails())
	}
	flowText := got.Space.Random(rand.New(rand.NewSource(1))).String(got.Space)
	if code, body := post(t, ts.URL+"/v1/predict",
		map[string]any{"flows": []string{flowText}}); code != http.StatusOK {
		t.Fatalf("predict after failed reload: %d %s", code, body)
	}
}

// TestChaosBatcherPanicIsolation pins the panic-isolation contract on
// the request path: a forward pass that panics fails that batch's
// requests with a 500 — and ONLY those — while the scheduler goroutine
// survives, so the very next request succeeds.
func TestChaosBatcherPanicIsolation(t *testing.T) {
	defer fault.Reset()
	reg, _, m := testLoopWorld(t)
	srv := serve.NewServer(reg, serve.DefaultServerConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := fault.Set("serve.batcher.flush=panic,n=1", 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	flowText := m.Space.Random(rng).String(m.Space)
	code, body := post(t, ts.URL+"/v1/predict", map[string]any{"flows": []string{flowText}})
	if code != http.StatusInternalServerError {
		t.Fatalf("predict through a panicking flush: %d %s, want 500", code, body)
	}
	// The scheduler survived; the next request is served normally.
	for i := 0; i < 3; i++ {
		flowText = m.Space.Random(rng).String(m.Space)
		if code, body = post(t, ts.URL+"/v1/predict",
			map[string]any{"flows": []string{flowText}}); code != http.StatusOK {
			t.Fatalf("predict %d after recovered panic: %d %s", i, code, body)
		}
	}
}

// TestChaosHandlerPanicIsolation injects a panic directly into a
// handler site: the request gets a 500 envelope, the process lives,
// and the next request on the same endpoint succeeds.
func TestChaosHandlerPanicIsolation(t *testing.T) {
	defer fault.Reset()
	reg, _, _ := testLoopWorld(t)
	srv := serve.NewServer(reg, serve.DefaultServerConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := fault.Set("serve.http.stats=panic,n=1", 1); err != nil {
		t.Fatal(err)
	}
	if code := getCode(t, ts.URL+"/v1/stats"); code != http.StatusInternalServerError {
		t.Fatalf("stats with an injected handler panic: %d, want 500", code)
	}
	if code := getCode(t, ts.URL+"/v1/stats"); code != http.StatusOK {
		t.Fatalf("stats after the recovered panic: %d, want 200", code)
	}
}

func getCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestChaosJournalStallDoesNotBlockServing stalls one journal append
// for 200 ms and requires the serving path to stay fast meanwhile:
// while an Add sleeps inside its journal write, Store.Has and
// Loop.Observe — which every predict and recommend reaches — must each
// return in under 20 ms. The corpus lock is never held across journal
// I/O, so neither waits on the stalled write.
func TestChaosJournalStallDoesNotBlockServing(t *testing.T) {
	defer fault.Reset()
	reg, eng, _ := testLoopWorld(t)
	cfg := testLoopConfig()
	cfg.JournalPath = filepath.Join(t.TempDir(), "labels.journal")
	lp, err := New(reg, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Close()
	flows := lp.space.RandomUnique(rand.New(rand.NewSource(9)), 2)
	if err := fault.Set("loop.journal.append=sleep,d=200ms,n=1", 1); err != nil {
		t.Fatal(err)
	}
	added := make(chan error, 1)
	go func() {
		_, err := lp.store.Add(flows[0], synth.QoR{Area: 1, Delay: 1})
		added <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); fault.Count("loop.journal.append") == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the journal append never reached its fault site")
		}
		time.Sleep(time.Millisecond)
	}
	const bound = 20 * time.Millisecond
	t0 := time.Now()
	lp.store.Has(flows[1])
	if d := time.Since(t0); d >= bound {
		t.Errorf("Store.Has took %v during a stalled journal append, want under %v", d, bound)
	}
	t0 = time.Now()
	lp.Observe(context.Background(), flows[1:])
	if d := time.Since(t0); d >= bound {
		t.Errorf("Loop.Observe took %v during a stalled journal append, want under %v", d, bound)
	}
	if err := <-added; err != nil {
		t.Fatal(err)
	}
	if !lp.store.Has(flows[0]) || lp.store.Persisted() != 1 {
		t.Fatalf("after the stall: has %v, persisted %d; want the flow on disk", lp.store.Has(flows[0]), lp.store.Persisted())
	}
}

// TestChaosDrainWaitsForExploration drains while one labeler round's
// exploration batch sleeps 200 ms in its labeling. The drain must wait
// for the batch, or its labels land after the drain reported the corpus
// (and the journal replays more labels than the drain counted).
func TestChaosDrainWaitsForExploration(t *testing.T) {
	defer fault.Reset()
	reg, eng, _ := testLoopWorld(t)
	lp, err := New(reg, eng, testLoopConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Close()
	if err := fault.Set("loop.labeler=sleep,d=200ms", 1); err != nil {
		t.Fatal(err)
	}
	round := make(chan struct{})
	go func() { // nothing is queued, so the round explores
		defer close(round)
		lp.labelRound(context.Background(), rand.New(rand.NewSource(1)), time.NewTimer(0))
	}()
	for lp.Status().Explored == 0 {
		time.Sleep(time.Millisecond)
	}
	res, err := lp.Drain(context.Background())
	<-round
	dr, _ := res.(DrainResult)
	if explored := lp.Status().Explored; err != nil || int64(dr.DatasetSize) != explored {
		t.Fatalf("drain returned with %d of %d explored flows labeled (%v)", dr.DatasetSize, explored, err)
	}
}
