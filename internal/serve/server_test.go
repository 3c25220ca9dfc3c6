package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowgen/internal/core"
	"flowgen/internal/fault"
	"flowgen/internal/flow"
	"flowgen/internal/nn"
	"flowgen/internal/tensor"
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

// directProbs scores flows through the model's own streamed path, the
// serving layer's ground truth: every served row must be bit-identical
// to it.
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

// newTestServer stands up a server over one registered test model.
func newTestServer(t *testing.T, models ...*Model) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	for _, m := range models {
		reg.Register(m)
	}
	cfg := DefaultServerConfig()
	cfg.Workers = 1
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

// TestServerPredict exercises the predict endpoint: single-flow and
// multi-flow requests, bit-equality with direct scoring, and the cache
// flag on a repeat request.
func TestServerPredict(t *testing.T) {
	m := testModel("alu", 5)
	_, ts := newTestServer(t, m)

	flows := m.Space.RandomUnique(rand.New(rand.NewSource(9)), 6)
	want := directProbs(m, flows)
	texts := make([]string, len(flows))
	for i, f := range flows {
		texts[i] = f.String(m.Space)
	}

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

	// Flow 0 now hits the cache; the other five are scored together.
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

// TestServerRequestBodyBound: a body is bounded before it is buffered.
// On a server with a small MaxPool, a recommend of exactly MaxPool
// explicit flows, pretty-printed, succeeds; a body of maxBody bytes is
// read (and fails as a bad flow), and one byte more is a 413 envelope.
func TestServerRequestBodyBound(t *testing.T) {
	m := testModel("alu", 5)
	reg := NewRegistry()
	reg.Register(m)
	cfg := DefaultServerConfig()
	cfg.Workers = 1
	cfg.MaxPool, cfg.MaxFlows = 64, 16
	s := NewServer(reg, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	post := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/recommend", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}

	pool := m.Space.RandomUnique(rand.New(rand.NewSource(9)), cfg.MaxPool)
	texts := make([]string, len(pool))
	for i, f := range pool {
		texts[i] = f.String(m.Space)
	}
	full, err := json.MarshalIndent(recommendRequest{Model: "alu", TopK: 3, Flows: texts}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if code, body := post(full); code != http.StatusOK {
		t.Fatalf("recommend of MaxPool flows (%d bytes): %d %s", len(full), code, body)
	}

	// One flow string padded so the JSON value ends on the body's last
	// byte: the decoder must read every byte to finish it.
	limit := int(s.maxBody())
	sized := func(n int) []byte {
		const head, tail = `{"flows":["`, `"]}`
		return []byte(head + strings.Repeat("a", n-len(head)-len(tail)) + tail)
	}
	if code, body := post(sized(limit)); code != http.StatusBadRequest {
		t.Fatalf("body of exactly %d bytes: %d %s, want the bad flow's 400", limit, code, body)
	}
	code, body := post(sized(limit + 1))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over %d: %d %s, want 413", limit, code, body)
	}
	if c, _ := decodeEnvelope(t, body); c != "too_large" {
		t.Fatalf("413 envelope code %q, want too_large", c)
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
// per-endpoint/cache/model counters populate under traffic.
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
	if stats.Cache.Misses != int64(len(flows)) || stats.Cache.Size != len(flows) {
		t.Fatalf("cache stats after %d distinct flows: %+v", len(flows), stats.Cache)
	}
	if _, ok := stats.Endpoints["healthz"]; !ok {
		t.Fatal("healthz must be instrumented")
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

// TestServerCloseFlipsReadiness: Close is the first step of an
// ordered shutdown. It turns /readyz to 503 while /healthz stays 200,
// and requests that still arrive are served.
func TestServerCloseFlipsReadiness(t *testing.T) {
	m := testModel("alu", 5)
	s, ts := newTestServer(t, m)
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz before Close: %d", code)
	}
	s.Close()
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after Close: %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz after Close: %d, want 200", code)
	}
	text := m.Space.Random(rand.New(rand.NewSource(1))).String(m.Space)
	if code, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Flows: []string{text}}, nil); code != http.StatusOK {
		t.Fatalf("predict after Close: %d %s", code, body)
	}
}

// TestServerPredictDeadline: a predict whose request deadline passes
// before scoring answers 504 timeout, single-flow and multi-flow alike,
// and caches nothing.
func TestServerPredictDeadline(t *testing.T) {
	defer fault.Reset()
	m := testModel("alu", 5)
	reg := NewRegistry()
	reg.Register(m)
	cfg := DefaultServerConfig()
	cfg.Workers = 1
	cfg.RequestTimeout = 20 * time.Millisecond
	s := NewServer(reg, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	if err := fault.Set("serve.http.predict=sleep,d=60ms", 1); err != nil {
		t.Fatal(err)
	}
	flows := m.Space.RandomUnique(rand.New(rand.NewSource(8)), 3)
	texts := make([]string, len(flows))
	for i, f := range flows {
		texts[i] = f.String(m.Space)
	}
	for _, n := range []int{1, len(texts)} {
		code, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{Flows: texts[:n]}, nil)
		if code != http.StatusGatewayTimeout {
			t.Fatalf("%d-flow predict past its deadline: %d %s, want 504", n, code, body)
		}
		if c, _ := decodeEnvelope(t, body); c != "timeout" {
			t.Fatalf("%d-flow predict past its deadline: code %q, want timeout", n, c)
		}
	}
	if st := s.cache.Stats(); st.Size != 0 {
		t.Fatalf("timed-out predicts cached %d rows", st.Size)
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

// TestServerConcurrentMixedTraffic races single-flow predicts,
// multi-flow predicts and recommendation pools on one model at once
// and checks each response against direct scoring. nn networks retain
// forward state, so this fails under -race unless every concurrent
// forward runs on its own scratch.
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
		go func(c int) { // single-flow traffic
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
		go func() { // multi-flow traffic
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
		go func(c int) { // recommendation traffic
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

// predictHTTP posts one /v1/predict request and decodes a 200 reply
// with one row per flow. It reports failures as errors, so client
// goroutines can call it.
func predictHTTP(url string, texts []string) (predictResponse, error) {
	var pr predictResponse
	raw, err := json.Marshal(predictRequest{Flows: texts})
	if err != nil {
		return pr, err
	}
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(raw))
	if err != nil {
		return pr, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return pr, err
	case resp.StatusCode != http.StatusOK:
		return pr, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		return pr, err
	}
	if len(pr.Results) != len(texts) {
		return pr, fmt.Errorf("%d rows for %d flows", len(pr.Results), len(texts))
	}
	return pr, nil
}

// alternatingTraffic posts predicts from clients goroutines, perClient
// requests each, while a model file alternates between two weight sets
// (version v serves sets[(v+1)%2]). Every third request carries three
// flows, the others one; clients ask the same flows in the same order,
// so rows repeat and some come from the cache. Every row must equal,
// bit for bit, the direct scoring of its flow by the version its
// response reports. It returns the cached rows seen and the first
// failure.
func alternatingTraffic(url string, sets [2]*Model, flows []flow.Flow, clients, perClient int) (int64, error) {
	want := [2][][]float64{directProbs(sets[0], flows), directProbs(sets[1], flows)}
	var cached atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				idx := []int{i % len(flows)}
				if i%3 == 2 {
					idx = append(idx, (i+1)%len(flows), (i+2)%len(flows))
				}
				texts := make([]string, len(idx))
				for j, k := range idx {
					texts[j] = flows[k].String(sets[0].Space)
				}
				pr, err := predictHTTP(url, texts)
				if err != nil {
					errs <- fmt.Errorf("client %d request %d: %v", c, i, err)
					return
				}
				for j, r := range pr.Results {
					if !sameProbs(r.Probs, want[(pr.Version+1)%2][idx[j]]) {
						errs <- fmt.Errorf("client %d request %d row %d (cached %v): differs from version %d's direct scoring",
							c, i, j, r.Cached, pr.Version)
						return
					}
					if r.Cached {
						cached.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	return cached.Load(), <-errs
}

// wantServedBy asks for f twice after the last reload: both answers
// must come from version, carry want bit for bit, and the second must
// be a cache hit.
func wantServedBy(t *testing.T, url, f string, version int, want []float64) {
	t.Helper()
	for i := 0; i < 2; i++ {
		pr, err := predictHTTP(url, []string{f})
		if err != nil {
			t.Fatal(err)
		}
		r := pr.Results[0]
		if pr.Version != version || !sameProbs(r.Probs, want) {
			t.Fatalf("request %d after the last reload served by v%d, want v%d's weights", i, pr.Version, version)
		}
		if i == 1 && !r.Cached {
			t.Fatal("repeat request after the last reload missed the cache")
		}
	}
}

// TestHotReloadDuringTraffic swaps two weight sets through the model
// file while clients post single-flow and multi-flow predicts, some
// rows served from the cache, and asserts zero downtime: every row is
// bit-identical to the direct scoring of the version its response
// reports, and the final version serves after the last reload. The
// subtest is named for the float32 predictor that scores every row.
func TestHotReloadDuringTraffic(t *testing.T) {
	t.Run("f32", testHotReloadDuringTraffic)
}

func testHotReloadDuringTraffic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.flowmodel")
	sets := [2]*Model{testModel("m", 1), testModel("m", 2)}
	if err := SaveModel(path, sets[0]); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, loaded)
	reg := s.Registry

	const clients, perClient, reloadN = 8, 40, 6
	flows := sets[0].Space.RandomUnique(rand.New(rand.NewSource(4)), 12)
	reloaded := make(chan error, 1)
	go func() {
		for i := 0; i < reloadN; i++ {
			if err := SaveModel(path, sets[(i+1)%2]); err != nil {
				reloaded <- err
				return
			}
			if _, err := reg.Reload("m"); err != nil {
				reloaded <- err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		reloaded <- nil
	}()
	cached, err := alternatingTraffic(ts.URL, sets, flows, clients, perClient)
	if rerr := <-reloaded; rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of the traffic's rows came from the cache", cached)

	if got := reg.Reloads(); got != reloadN {
		t.Fatalf("registry counted %d reloads, want %d", got, reloadN)
	}
	const final = reloadN + 1
	wantServedBy(t, ts.URL, flows[0].String(sets[0].Space), final,
		directProbs(sets[(final+1)%2], flows[:1])[0])
}

// TestBootstrapModel sanity-checks the no-files bring-up path used by
// CI smoke tests.
func TestBootstrapModel(t *testing.T) {
	m := BootstrapModel("boot")
	if m.Space.Length() != 24 || m.Arch.InH*m.Arch.InW != 144 {
		t.Fatalf("bootstrap space: L=%d enc=%dx%d", m.Space.Length(), m.Arch.InH, m.Arch.InW)
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
