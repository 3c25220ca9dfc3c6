package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"flowgen/internal/core"
	"flowgen/internal/flow"
	"flowgen/internal/nn"
	"flowgen/internal/tensor"
	"flowgen/internal/train"
)

// newTestServer stands up a server over one registered test model.
func newTestServer(t *testing.T, models ...*Model) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	for _, m := range models {
		reg.Register(m)
	}
	cfg := DefaultServerConfig()
	cfg.Batcher.Workers = 1
	cfg.MaxPool = 500
	s := NewServer(reg, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
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
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decoding %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestServerPredict exercises the predict endpoint: single-flow (via
// the micro-batcher), multi-flow (via the streaming path), bit-equality
// with direct scoring, and the cache flag on a repeat request.
func TestServerPredict(t *testing.T) {
	m := testModel("alu", 5)
	_, ts := newTestServer(t, m)

	flows := m.Space.RandomUnique(rand.New(rand.NewSource(9)), 6)
	want := directProbs(m, flows)
	texts := make([]string, len(flows))
	for i, f := range flows {
		texts[i] = f.String(m.Space)
	}

	// Single flow rides the batcher.
	var single predictResponse
	if code, body := postJSON(t, ts.URL+"/v1/predict",
		predictRequest{Flows: texts[:1]}, &single); code != http.StatusOK {
		t.Fatalf("predict: %d %s", code, body)
	}
	if single.Model != "alu" || single.Version != 1 || len(single.Results) != 1 {
		t.Fatalf("predict response: %+v", single)
	}
	if !sameProbs(single.Results[0].Probs, want[0]) || single.Results[0].Cached {
		t.Fatalf("single-flow scoring mismatch: %+v", single.Results[0])
	}

	// Multi-flow goes through the streaming path; flow 0 now hits the
	// cache.
	var multi predictResponse
	if code, body := postJSON(t, ts.URL+"/v1/predict",
		predictRequest{Flows: texts}, &multi); code != http.StatusOK {
		t.Fatalf("predict: %d %s", code, body)
	}
	for i := range flows {
		r := multi.Results[i]
		if !sameProbs(r.Probs, want[i]) {
			t.Fatalf("flow %d scoring mismatch", i)
		}
		if r.Class != train.Argmax(want[i]) {
			t.Fatalf("flow %d class mismatch", i)
		}
		if (i == 0) != r.Cached {
			t.Fatalf("flow %d cached=%v, want %v", i, r.Cached, i == 0)
		}
	}

	// Error cases: empty, unparseable and unknown-model requests.
	if code, _ := postJSON(t, ts.URL+"/v1/predict", predictRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty predict: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/predict",
		predictRequest{Flows: []string{"bogus; flow"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad flow: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/predict",
		predictRequest{Model: "ghost", Flows: texts[:1]}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown model: %d", code)
	}
}

// TestServerRecommend checks both pool modes against the direct
// selection rule.
func TestServerRecommend(t *testing.T) {
	m := testModel("alu", 5)
	_, ts := newTestServer(t, m)

	// Server-generated pool: must equal predicting the same seeded pool
	// directly and applying core.SelectFlows.
	const poolN, topK, seed = 120, 4, 11
	pool := m.Space.RandomUnique(rand.New(rand.NewSource(seed)), poolN)
	probs := directProbs(m, pool)
	scored := make([]core.ScoredFlow, poolN)
	for i, f := range pool {
		cls := train.Argmax(probs[i])
		scored[i] = core.ScoredFlow{Flow: f, Class: cls, Confidence: probs[i][cls], Probs: probs[i]}
	}
	wantAngels, wantDevils := core.SelectFlows(scored, m.Arch.NumClasses, topK)

	var rec recommendResponse
	if code, body := postJSON(t, ts.URL+"/v1/recommend",
		recommendRequest{TopK: topK, Pool: poolN, Seed: seed}, &rec); code != http.StatusOK {
		t.Fatalf("recommend: %d %s", code, body)
	}
	if rec.PoolSize != poolN || len(rec.Angels) != topK || len(rec.Devils) != topK {
		t.Fatalf("recommend shape: %+v", rec)
	}
	for i := range wantAngels {
		if rec.Angels[i].Flow != wantAngels[i].Flow.String(m.Space) ||
			!sameProbs(rec.Angels[i].Probs, wantAngels[i].Probs) {
			t.Fatalf("angel %d mismatch", i)
		}
	}
	for i := range wantDevils {
		if rec.Devils[i].Flow != wantDevils[i].Flow.String(m.Space) {
			t.Fatalf("devil %d mismatch", i)
		}
	}

	// Explicit candidate pool.
	texts := make([]string, 30)
	for i, f := range pool[:30] {
		texts[i] = f.String(m.Space)
	}
	if code, body := postJSON(t, ts.URL+"/v1/recommend",
		recommendRequest{TopK: 3, Flows: texts}, &rec); code != http.StatusOK {
		t.Fatalf("recommend flows: %d %s", code, body)
	}
	if rec.PoolSize != 30 || len(rec.Angels) != 3 {
		t.Fatalf("explicit pool: %+v", rec)
	}

	// Error cases: both modes at once, neither, oversized pool.
	if code, _ := postJSON(t, ts.URL+"/v1/recommend",
		recommendRequest{Flows: texts, Pool: 10}, nil); code != http.StatusBadRequest {
		t.Fatalf("both modes: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/recommend", recommendRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("neither mode: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/recommend",
		recommendRequest{Pool: 100000}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized pool: %d", code)
	}

	// A pool within MaxPool but beyond the model's space is a bad
	// request too: an m=1 space holds 720 flows.
	arch := nn.FastArch(5)
	arch.InH, arch.InW = 6, 6
	small := &Model{Name: "m1", Space: flow.NewSpace(flow.DefaultAlphabet, 1), Arch: arch, Net: arch.Build(3)}
	s1, ts1 := newTestServer(t, small)
	s1.cfg.MaxPool = 5000
	if code, body := postJSON(t, ts1.URL+"/v1/recommend",
		recommendRequest{Model: "m1", Pool: 720}, &rec); code != http.StatusOK || rec.PoolSize != 720 {
		t.Fatalf("whole m=1 space as pool: %d %s", code, body)
	}
	if code, body := postJSON(t, ts1.URL+"/v1/recommend",
		recommendRequest{Model: "m1", Pool: 800}, nil); code != http.StatusBadRequest {
		t.Fatalf("pool beyond the m=1 space: %d %s", code, body)
	}
}

// TestServerModelsAndReload covers the registry endpoints end to end,
// including the hot-reload version bump and stale-model-name errors.
func TestServerModelsAndReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "alu.flowmodel")
	if err := SaveModel(path, testModel("alu", 5)); err != nil {
		t.Fatal(err)
	}
	onDisk, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mem := testModel("scratch", 6)
	_, ts := newTestServer(t, onDisk, mem)

	var models struct {
		Default string      `json:"default"`
		Models  []ModelInfo `json:"models"`
	}
	if code := getJSON(t, ts.URL+"/v1/models", &models); code != http.StatusOK {
		t.Fatalf("models: %d", code)
	}
	if models.Default != "alu" || len(models.Models) != 2 {
		t.Fatalf("models listing: %+v", models)
	}
	if !models.Models[0].Default || models.Models[0].Params == 0 {
		t.Fatalf("model info: %+v", models.Models[0])
	}

	// Swap new weights onto disk and reload everything file-backed.
	if err := SaveModel(path, testModel("alu", 7)); err != nil {
		t.Fatal(err)
	}
	var rel struct {
		Reloaded []reloadResult `json:"reloaded"`
	}
	if code, body := postJSON(t, ts.URL+"/v1/models/reload", reloadRequest{}, &rel); code != http.StatusOK {
		t.Fatalf("reload: %d %s", code, body)
	}
	if len(rel.Reloaded) != 1 || rel.Reloaded[0].Name != "alu" || rel.Reloaded[0].Version != 2 {
		t.Fatalf("reload result: %+v", rel)
	}

	// Reloading the in-memory model by name is a client error.
	if code, _ := postJSON(t, ts.URL+"/v1/models/reload", reloadRequest{Name: "scratch"}, nil); code != http.StatusBadRequest {
		t.Fatalf("in-memory reload: %d", code)
	}

	// The reloaded weights actually serve.
	f := onDisk.Space.Random(rand.New(rand.NewSource(2)))
	var pr predictResponse
	if code, _ := postJSON(t, ts.URL+"/v1/predict",
		predictRequest{Flows: []string{f.String(onDisk.Space)}}, &pr); code != http.StatusOK {
		t.Fatal("predict after reload failed")
	}
	if pr.Version != 2 {
		t.Fatalf("predict served v%d after reload", pr.Version)
	}
	want := directProbs(testModel("alu", 7), []flow.Flow{f})
	if !sameProbs(pr.Results[0].Probs, want[0]) {
		t.Fatal("post-reload prediction does not match the new weights")
	}
}

// TestServerHealthAndStats checks the liveness endpoint and that the
// per-endpoint/batcher/cache/model counters populate under traffic.
func TestServerHealthAndStats(t *testing.T) {
	m := testModel("alu", 5)
	_, ts := newTestServer(t, m)

	var health healthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health.Status != "ok" || health.Models != 1 {
		t.Fatalf("health: %+v", health)
	}

	// Concurrent single-flow predictions exercise the batcher.
	flows := m.Space.RandomUnique(rand.New(rand.NewSource(3)), 8)
	var wg sync.WaitGroup
	for _, f := range flows {
		wg.Add(1)
		go func(text string) {
			defer wg.Done()
			var pr predictResponse
			postJSON(t, ts.URL+"/v1/predict", predictRequest{Flows: []string{text}}, &pr)
		}(f.String(m.Space))
	}
	wg.Wait()

	var stats statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	ep, ok := stats.Endpoints["predict"]
	if !ok || ep.Requests != int64(len(flows)) || ep.MeanMicro <= 0 {
		t.Fatalf("predict endpoint stats: %+v", stats.Endpoints)
	}
	bs, ok := stats.Batchers["alu"]
	if !ok || bs.BatchedFlows+stats.Cache.Hits < int64(len(flows)) {
		t.Fatalf("batcher stats: %+v cache %+v", bs, stats.Cache)
	}
	if _, ok := stats.Endpoints["healthz"]; !ok {
		t.Fatal("healthz must be instrumented")
	}
	ms, ok := stats.Models["alu"]
	if !ok {
		t.Fatalf("model stats missing: %+v", stats.Models)
	}
	if ms.Precision != "f32" || ms.Version != 1 {
		t.Fatalf("model stats: %+v, want precision f32 v1", ms)
	}
	if want := tensor.ActiveSIMD().String(); stats.SIMD != want {
		t.Fatalf("simd tier: %q, want %q", stats.SIMD, want)
	}

	// Unknown fields are rejected (strict decoding).
	if code, body := postJSON(t, ts.URL+"/v1/predict",
		map[string]any{"flows": []string{flows[0].String(m.Space)}, "bogus": 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %s", code, body)
	}
}

// TestServerClosedRejectsBatching proves Close is terminal: a predict
// that needs a batcher after Close must fail instead of silently
// resurrecting a scheduler goroutine on a closed server.
func TestServerClosedRejectsBatching(t *testing.T) {
	m := testModel("alu", 5)
	s, ts := newTestServer(t, m)
	text := m.Space.Random(rand.New(rand.NewSource(1))).String(m.Space)
	s.Close()
	code, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Flows: []string{text}}, nil)
	if code == http.StatusOK {
		t.Fatalf("predict after Close must fail, got 200 %s", body)
	}
	s.mu.Lock()
	n := len(s.batchers)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("closed server recreated %d batcher(s)", n)
	}
}

// TestServerReloadAllFailure: when every file-backed model fails to
// reload, the endpoint must surface a failure status code, not a 200
// with errors buried in the body.
func TestServerReloadAllFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "alu.flowmodel")
	if err := SaveModel(path, testModel("alu", 5)); err != nil {
		t.Fatal(err)
	}
	onDisk, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, onDisk)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/models/reload", reloadRequest{}, nil); code == http.StatusOK {
		t.Fatal("reload-all with every model failing must not return 200")
	}
}

// TestServerConcurrentMixedTraffic races every scoring path of one
// model at once — batched single-flow predicts, streamed multi-flow
// predicts and recommendation pools — and checks each response against
// direct scoring. nn networks retain forward state, so this fails under
// -race unless every concurrent forward runs on its own clone.
func TestServerConcurrentMixedTraffic(t *testing.T) {
	m := testModel("alu", 5)
	_, ts := newTestServer(t, m)

	flows := m.Space.RandomUnique(rand.New(rand.NewSource(21)), 12)
	want := directProbs(m, flows)
	texts := make([]string, len(flows))
	for i, f := range flows {
		texts[i] = f.String(m.Space)
	}

	var wg sync.WaitGroup
	fail := make(chan string, 64)
	for c := 0; c < 4; c++ {
		wg.Add(3)
		go func(c int) { // single-flow traffic (batcher path)
			defer wg.Done()
			for i := 0; i < 6; i++ {
				idx := (c + i) % len(flows)
				var pr predictResponse
				if code, body := postJSON(t, ts.URL+"/v1/predict",
					predictRequest{Flows: texts[idx : idx+1]}, &pr); code != http.StatusOK {
					fail <- body
					return
				}
				if !sameProbs(pr.Results[0].Probs, want[idx]) {
					fail <- "single-flow response corrupted under concurrency"
					return
				}
			}
		}(c)
		go func() { // multi-flow traffic (streaming path)
			defer wg.Done()
			for i := 0; i < 3; i++ {
				var pr predictResponse
				if code, body := postJSON(t, ts.URL+"/v1/predict",
					predictRequest{Flows: texts}, &pr); code != http.StatusOK {
					fail <- body
					return
				}
				for j := range texts {
					if !sameProbs(pr.Results[j].Probs, want[j]) {
						fail <- "multi-flow response corrupted under concurrency"
						return
					}
				}
			}
		}()
		go func(c int) { // recommendation traffic (pool streaming path)
			defer wg.Done()
			var rec recommendResponse
			if code, body := postJSON(t, ts.URL+"/v1/recommend",
				recommendRequest{TopK: 2, Pool: 60, Seed: int64(c + 1)}, &rec); code != http.StatusOK {
				fail <- body
			}
		}(c)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
}

// TestBootstrapModel sanity-checks the no-files bring-up path used by
// CI smoke tests.
func TestBootstrapModel(t *testing.T) {
	m := BootstrapModel("boot")
	if m.Space.Length() != 24 || m.EncodeLen() != 144 {
		t.Fatalf("bootstrap space: L=%d enc=%d", m.Space.Length(), m.EncodeLen())
	}
	reg := NewRegistry()
	reg.Register(m)
	s := NewServer(reg, DefaultServerConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	text := strings.Join(m.Space.Random(rand.New(rand.NewSource(1))).Names(m.Space), "; ")
	var pr predictResponse
	if code, body := postJSON(t, ts.URL+"/v1/predict",
		predictRequest{Flows: []string{text}}, &pr); code != http.StatusOK {
		t.Fatalf("bootstrap predict: %d %s", code, body)
	}
	if len(pr.Results[0].Probs) != 7 {
		t.Fatalf("bootstrap classes: %v", pr.Results[0].Probs)
	}
	if sum := func() (s float64) {
		for _, p := range pr.Results[0].Probs {
			s += p
		}
		return
	}(); sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities do not sum to 1: %v", sum)
	}
}
