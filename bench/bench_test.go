package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"flowgen/internal/core"
	"flowgen/internal/flow"
	"flowgen/internal/synth"
)

func TestRoundReplayMatchesFrameworkRun(t *testing.T) {
	cfg := core.DefaultConfig(flow.NewSpace(flow.DefaultAlphabet, 1))
	cfg.TrainFlows, cfg.InitialLabeled, cfg.RetrainEvery = 24, 12, 6
	cfg.StepsPerRound, cfg.SampleFlows, cfg.NumOut, cfg.Seed = 20, 40, 3, 5
	design, err := buildDesign("alu8")
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(cfg, synth.NewEngine(design, cfg.Space))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fw.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fw, err = core.New(cfg, synth.NewEngine(design, cfg.Space)); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	got, err := replayRound(fw, tr, 0)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("replay ran %d rounds, Run %d", len(got.Rounds), len(want.Rounds))
	}
	for i := range want.Rounds {
		g, w := got.Rounds[i], want.Rounds[i]
		if g.Labeled != w.Labeled || g.Steps != w.Steps || g.Loss != w.Loss || g.TrainAcc != w.TrainAcc {
			t.Errorf("round %d: replay %+v, Run %+v", i, g, w)
		}
	}
	sameFlows := func(kind string, g, w []core.ScoredFlow) {
		if len(g) != len(w) {
			t.Fatalf("%s: replay selected %d, Run %d", kind, len(g), len(w))
		}
		for i := range w {
			if g[i].Flow.Key() != w[i].Flow.Key() || g[i].Confidence != w[i].Confidence {
				t.Errorf("%s %d: replay %s (%v), Run %s (%v)", kind, i,
					g[i].Flow.String(cfg.Space), g[i].Confidence, w[i].Flow.String(cfg.Space), w[i].Confidence)
			}
		}
	}
	sameFlows("angel", got.Angels, want.Angels)
	sameFlows("devil", got.Devils, want.Devils)

	_, n := totals(tr.snapshot())
	rounds := int64(len(want.Rounds))
	if n["synth.evaluate"] != rounds || n["train.steps"] != rounds || n["core.select"] != 1 {
		t.Errorf("span counts %v for %d rounds", n, rounds)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	ascending := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, ok := tail(ascending(999), 0.99); ok {
		t.Error("p99 of 999 samples has fewer than 10 beyond it but was reported")
	}
	v, ok := tail(ascending(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", v, ok)
	}
	if got := quantile(ascending(10), 0.5); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
}

func TestOpenLoopTimesRequestsFromWhenTheyWereDue(t *testing.T) {
	const stall = 30 * time.Millisecond
	// Both senders stall on the first two requests; the rest are due
	// every millisecond meanwhile and must be charged the wait.
	samples := openLoop(1000, 20*time.Millisecond, func(_, k int) bool {
		if k < senders {
			time.Sleep(stall)
		}
		return true
	})
	if len(samples) != 20 {
		t.Fatalf("%d samples, want 20", len(samples))
	}
	for k := senders; k < len(samples); k++ {
		s := samples[k]
		if due := time.Duration(k) * time.Millisecond; s.late < stall-due || s.lat < s.late {
			t.Errorf("request %d (due at %v): late %v, latency %v; want late ≥ %v and latency ≥ late",
				k, due, s.late, s.lat, stall-due)
		}
	}
}

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "round", ID: 1, Start: 0, End: 100},
		{Name: "label", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "train", ID: 3, Parent: 1, Start: 20, End: 50},   // overlaps label
		{Name: "select", ID: 4, Parent: 1, Start: 90, End: 120}, // clipped at 100
		{Name: "fit", ID: 5, Parent: 2, Start: 12, End: 15},     // grandchild
	}
	self := selfTimes(spans)
	want := map[string]int64{"round": 50, "label": 17, "train": 30, "select": 30, "fit": 3}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
}

func TestSLOMissesCountFailedRequests(t *testing.T) {
	samples := []sample{
		{lat: time.Millisecond, ok: true},
		{lat: 2 * time.Millisecond, ok: true},
		{lat: 80 * time.Millisecond, ok: true},
		{lat: time.Millisecond, ok: false}, // fast, but failed
	}
	ms, _ := latencies(samples, func(int) bool { return true })
	if got := missFrac(ms, sloMs); got != 0.5 {
		t.Errorf("SLO miss share %v, want 0.5 (one slow, one failed of four)", got)
	}
	if !math.IsInf(ms[len(ms)-1], 1) {
		t.Errorf("a failed request's latency is %v, want +Inf", ms[len(ms)-1])
	}
}

func TestTracedLoadAgreesWithServerMetrics(t *testing.T) {
	r := newRun(3, time.Second, newTracer())
	sys, err := startSystem(r.seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	l := newLoad(r, sys)
	defer l.close()
	before := l.observe()
	samples := openLoop(1000, 200*time.Millisecond, func(c, _ int) bool { return l.predict(c) })
	after := l.observe()
	l.checkCounts(before, after)
	l.verifyScores()
	if r.failed != 0 || after.predicts-before.predicts != int64(len(samples)) {
		t.Fatalf("%d of %d operations failed; %d predicts for %d samples",
			r.failed, r.ops, after.predicts-before.predicts, len(samples))
	}
	_, n := totals(r.tr.snapshot())
	if n["http.predict"] != int64(len(samples)) || n["serve.parse"] != n["http.predict"] {
		t.Errorf("span counts %v for %d requests", n, len(samples))
	}
}

// benchmarkFile is the part of ../BENCHMARK.json the suite cross-checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// recorded is a results file written by `run.sh -out`.
type recorded struct {
	Traced  bool              `json:"traced"`
	Results map[string]result `json:"results"`
}

func TestMetricsMatchBenchmarkJSONAndRecordedOutput(t *testing.T) {
	var spec benchmarkFile
	readJSON(t, "../BENCHMARK.json", &spec)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q", i, w.Name)
		}
	}
	for _, c := range []struct {
		kind      string
		spec, run []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.run) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.kind, len(c.spec), len(c.run))
			continue
		}
		for i, d := range c.spec {
			if d != c.run[i] || !validName(d.Name) {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", c.kind, i, d, c.run[i])
			}
		}
	}

	for _, file := range []string{"testdata/untraced.json", "testdata/traced.json"} {
		var rec recorded
		readJSON(t, file, &rec)
		want := spec.EndToEnd
		if rec.Traced {
			want = spec.PerLayer
		}
		for _, w := range spec.Workloads {
			res, ok := rec.Results[w.Name]
			if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: %s recorded %+v", file, w.Name, res)
				continue
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s: %s did not report %s in %s", file, w.Name, d.Name, d.Unit)
				}
			}
			for name := range res.Metrics {
				if !validName(name) {
					t.Errorf("%s: %s reported invalid metric name %q", file, w.Name, name)
				}
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// validName reports whether a metric name is 1 to 64 of [A-Za-z0-9_.-]
// and starts with a letter or digit.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i, c := range name {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}
