package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"flowgen/internal/flow"
	"flowgen/internal/synth"
)

// fakeLoop is a LoopController stub recording what serve feeds it.
type fakeLoop struct {
	mu       sync.Mutex
	observed []flow.Flow
	labels   map[string]synth.QoR
}

func newFakeLoop() *fakeLoop { return &fakeLoop{labels: map[string]synth.QoR{}} }

func (f *fakeLoop) Observe(_ context.Context, flows []flow.Flow) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.observed = append(f.observed, flows...)
}

func (f *fakeLoop) SubmitLabel(text string, q synth.QoR) (bool, int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if text == "bogus" {
		return false, len(f.labels), fmt.Errorf("unparseable flow")
	}
	if err := q.Validate(); err != nil { // as the real loop does
		return false, len(f.labels), err
	}
	if _, dup := f.labels[text]; dup {
		return false, len(f.labels), nil
	}
	f.labels[text] = q
	return true, len(f.labels), nil
}

func (f *fakeLoop) LoopStatus() any {
	f.mu.Lock()
	defer f.mu.Unlock()
	return map[string]any{"running": true, "observed": len(f.observed)}
}

func (f *fakeLoop) Drain(context.Context) (any, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return map[string]any{"drained": true, "queued": 0}, nil
}

func decodeEnvelope(t *testing.T, body string) (code, message string) {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("error body %q is not the error envelope: %v", body, err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("incomplete error envelope: %q", body)
	}
	return env.Error.Code, env.Error.Message
}

// TestServerRESTModelRoutes covers the RESTful model collection — GET
// /v1/models/{name} and POST /v1/models/{name}/reload — alongside the
// legacy bulk alias, including that aliases share one metrics bucket.
func TestServerRESTModelRoutes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "alu.flowmodel")
	if err := SaveModel(path, testModel("alu", 5)); err != nil {
		t.Fatal(err)
	}
	onDisk, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, onDisk, testModel("scratch", 6))

	// GET one model.
	var info ModelInfo
	if code := getJSON(t, ts.URL+"/v1/models/alu", &info); code != http.StatusOK {
		t.Fatalf("model get: %d", code)
	}
	if info.Name != "alu" || info.Version != 1 || !info.Default || info.Params == 0 ||
		info.Classes != 5 || !slices.Equal(info.Metrics, []string{"area"}) || !slices.Equal(info.Percentiles, []float64{10, 30, 70, 90}) {
		t.Fatalf("model info: %+v", info)
	}

	// GET an unknown model is a 404 with the envelope.
	resp, err := http.Get(ts.URL + "/v1/models/ghost")
	if err != nil {
		t.Fatal(err)
	}
	var buf [512]byte
	n, _ := resp.Body.Read(buf[:])
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model get: %d", resp.StatusCode)
	}
	if code, _ := decodeEnvelope(t, string(buf[:n])); code != "not_found" {
		t.Fatalf("unknown model code: %q", code)
	}

	// RESTful per-model reload bumps the version like the legacy route.
	if err := SaveModel(path, testModel("alu", 7)); err != nil {
		t.Fatal(err)
	}
	var rel struct {
		Reloaded []reloadResult `json:"reloaded"`
	}
	if code, body := postJSON(t, ts.URL+"/v1/models/alu/reload", struct{}{}, &rel); code != http.StatusOK {
		t.Fatalf("restful reload: %d %s", code, body)
	}
	if len(rel.Reloaded) != 1 || rel.Reloaded[0].Name != "alu" || rel.Reloaded[0].Version != 2 {
		t.Fatalf("restful reload result: %+v", rel)
	}
	// Unknown name on the RESTful route: 404, not the legacy 400.
	if code, body := postJSON(t, ts.URL+"/v1/models/ghost/reload", struct{}{}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown restful reload: %d %s", code, body)
	}
	// In-memory model on the RESTful route keeps the legacy 400 semantics.
	if code, _ := postJSON(t, ts.URL+"/v1/models/scratch/reload", struct{}{}, nil); code != http.StatusBadRequest {
		t.Fatalf("in-memory restful reload: %d", code)
	}
	// Legacy bulk alias still works after the RESTful call...
	if code, body := postJSON(t, ts.URL+"/v1/models/reload", reloadRequest{Name: "alu"}, &rel); code != http.StatusOK {
		t.Fatalf("legacy reload: %d %s", code, body)
	}
	// ...and both routes aggregate into the one "reload" stats bucket.
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	ep := stats.Endpoints["reload"]
	if ep.Requests != 4 {
		t.Fatalf("reload bucket requests = %d, want 4 (aliases must share it): %+v", ep.Requests, stats.Endpoints)
	}
	if _, split := stats.Endpoints["model_reload"]; split {
		t.Fatal("RESTful reload must not get its own metrics bucket")
	}
}

// TestServerErrorEnvelope asserts the uniform error body and stable
// codes across representative failures of every kind. The first cases
// panic inside the engine's prediction workers, through a model whose
// network input does not hold its space's encoding (ReadModel refuses
// one, Register takes it); the server keeps answering the rest.
func TestServerErrorEnvelope(t *testing.T) {
	m := testModel("alu", 5)
	bad := testModel("bad", 5)
	bad.Space = flow.NewSpace([]string{"a", "b", "c", "d"}, 3) // 12x4 encodings, 4x8 network
	_, ts := newTestServer(t, m, bad)
	var badFlows []string
	for _, f := range bad.Space.RandomUnique(rand.New(rand.NewSource(9)), 70) {
		badFlows = append(badFlows, f.String(bad.Space))
	}

	cases := []struct {
		name   string
		method string
		url    string
		body   any
		status int
		code   string
	}{
		{"worker panic", "POST", "/v1/predict", map[string]any{"model": "bad", "flows": badFlows[:1]}, http.StatusInternalServerError, "internal"},
		{"worker panic chunks", "POST", "/v1/predict", map[string]any{"model": "bad", "flows": badFlows}, http.StatusInternalServerError, "internal"},
		{"empty predict", "POST", "/v1/predict", map[string]any{}, http.StatusBadRequest, "bad_request"},
		{"unknown model", "POST", "/v1/predict", map[string]any{"model": "ghost", "flows": []string{"a; b"}}, http.StatusNotFound, "not_found"},
		{"model get 404", "GET", "/v1/models/ghost", nil, http.StatusNotFound, "not_found"},
		{"loop status off", "GET", "/v1/loop/status", nil, http.StatusNotFound, "loop_disabled"},
		{"label off", "POST", "/v1/label", map[string]any{"flow": "a; b"}, http.StatusNotFound, "loop_disabled"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			var body string
			if tc.method == "GET" {
				resp, err := http.Get(ts.URL + tc.url)
				if err != nil {
					t.Fatal(err)
				}
				var buf [1024]byte
				n, _ := resp.Body.Read(buf[:])
				resp.Body.Close()
				status, body = resp.StatusCode, string(buf[:n])
			} else {
				status, body = postJSON(t, ts.URL+tc.url, tc.body, nil)
			}
			if status != tc.status {
				t.Fatalf("%s %s: status %d, want %d (%s)", tc.method, tc.url, status, tc.status, body)
			}
			if code, _ := decodeEnvelope(t, body); code != tc.code {
				t.Fatalf("%s %s: code %q, want %q", tc.method, tc.url, code, tc.code)
			}
		})
	}
}

// TestServerLoopEndpoints wires a fake loop controller in and checks
// the observation feed, the label endpoint and the status surfaces.
func TestServerLoopEndpoints(t *testing.T) {
	m := testModel("alu", 5)
	s, ts := newTestServer(t, m)
	lc := newFakeLoop()
	s.SetLoop(lc)

	// Predicted flows reach the loop as labeling candidates.
	f := m.Space.Enumerate(4)[1]
	if code, body := postJSON(t, ts.URL+"/v1/predict",
		predictRequest{Flows: []string{f.String(m.Space)}}, nil); code != http.StatusOK {
		t.Fatalf("predict: %d %s", code, body)
	}
	lc.mu.Lock()
	nObs := len(lc.observed)
	lc.mu.Unlock()
	if nObs != 1 || lc.observed[0].Key() != f.Key() {
		t.Fatalf("predict did not feed the loop: %d observed", nObs)
	}

	// Recommend feeds only the selected flows, not the whole pool.
	var rec recommendResponse
	if code, body := postJSON(t, ts.URL+"/v1/recommend",
		recommendRequest{TopK: 2, Pool: 50, Seed: 5}, &rec); code != http.StatusOK {
		t.Fatalf("recommend: %d %s", code, body)
	}
	lc.mu.Lock()
	nObs = len(lc.observed)
	lc.mu.Unlock()
	if want := 1 + len(rec.Angels) + len(rec.Devils); nObs != want {
		t.Fatalf("recommend observed %d flows, want %d (selection only, not the pool)", nObs-1, want-1)
	}

	// Label submission round-trips, reports dedup, and rejects garbage.
	var lr labelResponse
	if code, body := postJSON(t, ts.URL+"/v1/label",
		labelRequest{Flow: "a; b", Area: 812, Delay: 403}, &lr); code != http.StatusOK {
		t.Fatalf("label: %d %s", code, body)
	}
	if !lr.Accepted || lr.DatasetSize != 1 {
		t.Fatalf("label response: %+v", lr)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/label", labelRequest{Flow: "a; b", Area: 812}, &lr); code != http.StatusOK {
		t.Fatal("duplicate label submit must still be 200")
	}
	if code, _ := postJSON(t, ts.URL+"/v1/label", labelRequest{}, nil); code != http.StatusBadRequest {
		t.Fatal("empty label must be a 400")
	}
	if code, _ := postJSON(t, ts.URL+"/v1/label", labelRequest{Flow: "bogus"}, nil); code != http.StatusBadRequest {
		t.Fatal("unparseable label must be a 400")
	}
	// A negative measurement is a 400 with the error envelope, and
	// never reaches the corpus.
	code, body := postJSON(t, ts.URL+"/v1/label", labelRequest{Flow: "c; d", Area: -5, Delay: 403}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("negative-area label: %d %s, want 400", code, body)
	}
	if ec, _ := decodeEnvelope(t, body); ec != "bad_request" {
		t.Fatalf("negative-area label code %q, want bad_request", ec)
	}
	if _, stored := lc.labels["c; d"]; stored {
		t.Fatal("negative-area label reached the loop corpus")
	}
	if got := lc.labels["a; b"]; got.Area != 812 || got.Delay != 403 {
		t.Fatalf("label payload: %+v", got)
	}

	// Status endpoint and the stats loop block both surface the loop.
	var st map[string]any
	if code := getJSON(t, ts.URL+"/v1/loop/status", &st); code != http.StatusOK {
		t.Fatalf("loop status: %d", code)
	}
	if st["running"] != true {
		t.Fatalf("loop status body: %+v", st)
	}
	var stats struct {
		Loop map[string]any `json:"loop"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Loop == nil || stats.Loop["running"] != true {
		t.Fatalf("stats loop block: %+v", stats.Loop)
	}
}
