package loop

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"flowgen/internal/circuits"
	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/nn"
	"flowgen/internal/serve"
	"flowgen/internal/synth"
)

// testLoopWorld builds a registry with one small live model over the
// real transformation alphabet (m=1, so true QoR labeling on the real
// synthesis engine stays fast) and an engine for the alu8 design.
func testLoopWorld(t *testing.T) (*serve.Registry, *synth.Engine, *serve.Model) {
	t.Helper()
	space := flow.NewSpace(flow.DefaultAlphabet, 1)
	arch := nn.FastArch(2)
	arch.InH, arch.InW = space.N(), space.Length()
	m := &serve.Model{Name: "live", Space: space, Arch: arch, Net: arch.Build(1)}
	reg := serve.NewRegistry()
	reg.Register(m)
	d, err := circuits.ByName("alu8")
	if err != nil {
		t.Fatal(err)
	}
	return reg, synth.NewEngine(d.Build(), space), m
}

func testLoopConfig() Config {
	return Config{
		Percentiles:   []float64{50},
		QueueCap:      512,
		LabelWorkers:  2,
		LabelBatch:    16,
		ExploreBatch:  8,
		GatherWait:    5 * time.Millisecond,
		RetrainEvery:  12,
		MinLabeled:    12,
		StepsPerRound: 25,
		GateSlack:     1, // always publish: the e2e here is the plumbing, not model quality
		Seed:          3,
	}
}

// TestLoopPublishesUnderTraffic is the closed-loop end-to-end: a live
// server takes prediction and recommendation traffic while the loop
// labels observed+explored flows with true QoR and retrains in the
// background. The test requires at least two zero-downtime version
// bumps with not a single failed request. Run it with -race: the
// serving path and the retrainer share the registry and the current
// model's predictor.
func TestLoopPublishesUnderTraffic(t *testing.T) {
	reg, eng, _ := testLoopWorld(t)
	lp, err := New(reg, eng, testLoopConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Close()

	scfg := serve.DefaultServerConfig()
	scfg.Workers = 1
	srv := serve.NewServer(reg, scfg)
	defer srv.Close()
	srv.SetLoop(lp)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loopDone := make(chan struct{})
	go func() { defer close(loopDone); lp.Run(ctx) }()

	// Traffic generators: multi-flow predicts and pool recommends, all
	// of which must keep succeeding across version bumps.
	stop := make(chan struct{})
	fail := make(chan string, 64)
	var wg sync.WaitGroup
	space := lp.space
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var code int
				var body string
				if i%2 == 0 {
					texts := make([]string, 3)
					for j := range texts {
						texts[j] = space.Random(rng).String(space)
					}
					code, body = post(t, ts.URL+"/v1/predict", map[string]any{"flows": texts})
				} else {
					code, body = post(t, ts.URL+"/v1/recommend",
						map[string]any{"top_k": 2, "pool": 30, "seed": rng.Int63()})
				}
				if code != http.StatusOK {
					select {
					case fail <- fmt.Sprintf("request failed: %d %s", code, body):
					default:
					}
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(c)
	}

	// Wait for two publishes (serving version ≥ 3).
	deadline := time.After(2 * time.Minute)
	for {
		m, err := reg.Get("live")
		if err != nil {
			t.Fatal(err)
		}
		if m.Version >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("no second publish before deadline; status %+v", lp.Status())
		case msg := <-fail:
			t.Fatal(msg)
		case <-time.After(20 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	cancel()
	<-loopDone

	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	st := lp.Status()
	if st.Published < 2 || st.Labeled+st.Explored == 0 || st.DatasetSize < 12 {
		t.Fatalf("loop status after two publishes: %+v", st)
	}
	if st.LastPublishVersion < 3 || st.LastPublishTime.IsZero() {
		t.Fatalf("publish bookkeeping: %+v", st)
	}
}

// TestLoopGateRejection forces an impossible accuracy gate and proves a
// regressing candidate is rejected and logged — the serving model keeps
// its version and network.
func TestLoopGateRejection(t *testing.T) {
	reg, eng, m := testLoopWorld(t)
	cfg := testLoopConfig()
	cfg.GateSlack = -2 // candidate must beat serving by 2.0 accuracy: impossible
	lp, err := New(reg, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Close()

	// Seed the corpus directly; no goroutines needed to exercise the
	// retrain path deterministically.
	rng := rand.New(rand.NewSource(7))
	for i, f := range lp.space.RandomUnique(rng, 24) {
		if _, err := lp.store.Add(f, synth.QoR{Area: float64(i), Delay: float64(24 - i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lp.retrain(context.Background()); err != nil {
		t.Fatal(err)
	}

	st := lp.Status()
	if st.Retrains != 1 || st.Rejected != 1 || st.Published != 0 {
		t.Fatalf("gate did not reject: %+v", st)
	}
	if st.LastError == "" {
		t.Fatal("rejection must be logged in last_error")
	}
	cur, err := reg.Get("live")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != 1 || cur.Net != m.Net {
		t.Fatalf("rejected candidate reached serving: v%d", cur.Version)
	}
}

// addLabels puts n fresh flows with distinct synthetic QoRs straight
// into the corpus, so retrain rounds can be driven without goroutines.
func addLabels(t *testing.T, lp *Loop, rng *rand.Rand, n int) {
	t.Helper()
	for added := 0; added < n; {
		f := lp.space.Random(rng)
		ok, err := lp.store.Add(f, synth.QoR{Area: float64(rng.Intn(1000)), Delay: float64(rng.Intn(1000))})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			added++
		}
	}
}

// TestRetrainBudgetAbortsRound: a round that cannot finish inside
// RetrainBudget is counted as a timeout and explained in last_error,
// and nothing is published — the serving model keeps its version and
// network.
func TestRetrainBudgetAbortsRound(t *testing.T) {
	reg, eng, m := testLoopWorld(t)
	cfg := testLoopConfig()
	cfg.RetrainBudget = time.Nanosecond
	lp, err := New(reg, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Close()
	addLabels(t, lp, rand.New(rand.NewSource(7)), 24)
	lp.retrainRound(context.Background())

	st := lp.Status()
	if st.Retrains != 1 || st.RetrainTimeouts != 1 || st.Published != 0 || st.Rejected != 0 {
		t.Fatalf("budget did not abort the round: %+v", st)
	}
	if !strings.Contains(st.LastError, "budget") {
		t.Fatalf("last_error %q does not explain the budget abort", st.LastError)
	}
	cur, err := reg.Get("live")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != 1 || cur.Net != m.Net {
		t.Fatalf("an aborted candidate reached serving: v%d", cur.Version)
	}
}

// TestCutsAuditOneLinePerFittedRound: every round that fits a labeling
// model appends exactly one line to the cuts audit log — published,
// rejected by the gate or aborted by the budget alike — and the line
// holds the determinators fitted on that round's corpus.
func TestCutsAuditOneLinePerFittedRound(t *testing.T) {
	reg, eng, _ := testLoopWorld(t)
	cfg := testLoopConfig()
	cfg.CutsPath = filepath.Join(t.TempDir(), "labels.cuts")
	lp, err := New(reg, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Close()

	// An empty corpus fits nothing, so it audits nothing.
	lp.retrainRound(context.Background())
	if _, err := os.Stat(cfg.CutsPath); !os.IsNotExist(err) {
		t.Fatalf("a round with nothing to fit wrote the audit log (stat: %v)", err)
	}

	base := lp.cfg
	rng := rand.New(rand.NewSource(11))
	for i, outcome := range []struct {
		name string
		set  func(*Config)
	}{
		{"published", func(c *Config) {}},
		{"rejected", func(c *Config) { c.GateSlack = -2 }},
		{"budget-aborted", func(c *Config) { c.RetrainBudget = time.Nanosecond }},
	} {
		lp.cfg = base
		outcome.set(&lp.cfg)
		addLabels(t, lp, rng, 12)
		_, qors := lp.store.Snapshot()
		want, err := label.Fit(qors, lp.cfg.Metrics, lp.cfg.Percentiles)
		if err != nil {
			t.Fatal(err)
		}
		lp.retrainRound(context.Background())

		raw, err := os.ReadFile(cfg.CutsPath)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		if len(lines) != i+1 {
			t.Fatalf("%s round: audit log has %d lines after %d fitted rounds", outcome.name, len(lines), i+1)
		}
		var rec cutsRecord
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Round != int64(i+2) || rec.Corpus != len(qors) || !reflect.DeepEqual(rec.Determinators, want.Determinators) {
			t.Fatalf("%s round: audit line %+v, want round %d, corpus %d, determinators %v",
				outcome.name, rec, i+2, len(qors), want.Determinators)
		}
	}
	if st := lp.Status(); st.Published != 1 || st.Rejected != 1 || st.RetrainTimeouts != 1 {
		t.Fatalf("round outcomes: %+v", st)
	}
}

// TestLoopRestartResumesCorpus wires the journal through a full loop
// restart: labels from the first life survive into the second and
// immediately arm the retrain trigger.
func TestLoopRestartResumesCorpus(t *testing.T) {
	reg, eng, _ := testLoopWorld(t)
	cfg := testLoopConfig()
	cfg.JournalPath = t.TempDir() + "/labels.journal"
	lp, err := New(reg, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i, f := range lp.space.RandomUnique(rng, 16) {
		if _, _, err := lp.SubmitLabel(f.String(lp.space), synth.QoR{Area: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}

	lp2, err := New(reg, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lp2.Close()
	if lp2.store.Len() != 16 {
		t.Fatalf("restart lost the corpus: %d labels, want 16", lp2.store.Len())
	}
	// A replayed corpus past the threshold counts as new work.
	if lp2.newSince.Load() != 16 {
		t.Fatalf("newSince after replay = %d, want 16", lp2.newSince.Load())
	}
	// Duplicates across lifetimes are refused.
	rng = rand.New(rand.NewSource(9))
	f := lp2.space.RandomUnique(rng, 1)[0]
	accepted, size, err := lp2.SubmitLabel(f.String(lp2.space), synth.QoR{Area: 1})
	if err != nil || accepted || size != 16 {
		t.Fatalf("cross-restart duplicate: accepted=%v size=%d err=%v", accepted, size, err)
	}
}

// TestSubmitLabelRejectsInvalidQoR: external labels with NaN, infinite
// or negative measurements are refused at the edge — the corpus and the
// journal stay exactly as they were, so a bad client cannot poison the
// class determinators.
func TestSubmitLabelRejectsInvalidQoR(t *testing.T) {
	reg, eng, _ := testLoopWorld(t)
	cfg := testLoopConfig()
	cfg.JournalPath = t.TempDir() + "/labels.journal"
	lp, err := New(reg, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Close()
	flows := lp.space.RandomUnique(rand.New(rand.NewSource(5)), 2)
	if _, _, err := lp.SubmitLabel(flows[0].String(lp.space), synth.QoR{Area: 10, Delay: 5}); err != nil {
		t.Fatal(err)
	}
	if err := lp.store.Sync(); err != nil {
		t.Fatal(err)
	}
	journalSize := func() int64 {
		fi, err := os.Stat(cfg.JournalPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	size0, persisted0, bytes0 := lp.Status().DatasetSize, lp.store.Persisted(), journalSize()

	text := flows[1].String(lp.space)
	for name, q := range map[string]synth.QoR{
		"nan area":       {Area: math.NaN(), Delay: 1},
		"inf delay":      {Area: 1, Delay: math.Inf(1)},
		"negative area":  {Area: -1, Delay: 1},
		"negative delay": {Area: 1, Delay: -1},
		"negative gates": {Area: 1, Delay: 1, Gates: -1},
		"negative ands":  {Area: 1, Delay: 1, Ands: -1},
		"negative depth": {Area: 1, Delay: 1, Levels: -1},
	} {
		accepted, size, err := lp.SubmitLabel(text, q)
		if err == nil || accepted {
			t.Fatalf("%s: accepted=%v err=%v, want a rejection", name, accepted, err)
		}
		if size != size0 {
			t.Fatalf("%s: reported dataset size %d, want %d", name, size, size0)
		}
	}
	if err := lp.store.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := lp.Status().DatasetSize; got != size0 {
		t.Fatalf("dataset size %d after rejected labels, want %d", got, size0)
	}
	if got := lp.store.Persisted(); got != persisted0 {
		t.Fatalf("journal holds %d samples after rejected labels, want %d", got, persisted0)
	}
	if got := journalSize(); got != bytes0 {
		t.Fatalf("journal grew from %d to %d bytes on rejected labels", bytes0, got)
	}
	if lp.store.Has(flows[1]) {
		t.Fatal("a rejected flow reached the corpus")
	}
}

func post(t *testing.T, url string, body any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}
