package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// TestServerTraceHeaders checks the request-tracing contract: every
// response carries an X-Request-ID (generated when the client sent
// none, echoed verbatim when it did) and a Server-Timing header with
// the recorded stage spans.
func TestServerTraceHeaders(t *testing.T) {
	m := testModel("alu", 5)
	_, ts := newTestServer(t, m)
	text := m.Space.Random(rand.New(rand.NewSource(1))).String(m.Space)
	body, _ := json.Marshal(predictRequest{Flows: []string{text}})

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("generated X-Request-ID %q is not 16 hex digits", id)
	}
	st := resp.Header.Get("Server-Timing")
	if !strings.Contains(st, "parse;dur=") || !strings.Contains(st, "score;dur=") {
		t.Fatalf("Server-Timing %q missing parse/score spans", st)
	}

	// A client-supplied ID is honored and echoed.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/predict", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Fatalf("client trace ID not echoed: %q", got)
	}
}

// TestServerMetricsEndpoint drives traffic and scrapes GET /metrics,
// asserting the exposition covers the serving pipeline end to end:
// per-endpoint latency summaries, stage spans, cache counters and
// model-registry gauges.
func TestServerMetricsEndpoint(t *testing.T) {
	m := testModel("alu", 5)
	_, ts := newTestServer(t, m)
	text := m.Space.Random(rand.New(rand.NewSource(2))).String(m.Space)
	var pr predictResponse
	postJSON(t, ts.URL+"/v1/predict", predictRequest{Flows: []string{text}}, &pr)
	postJSON(t, ts.URL+"/v1/predict", predictRequest{Flows: []string{text}}, &pr) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	exposition := string(raw)
	for _, want := range []string{
		`flowgen_http_request_duration_seconds{endpoint="predict",quantile="0.5"}`,
		`flowgen_http_request_duration_seconds_count{endpoint="predict"}`,
		`flowgen_stage_duration_seconds{stage="score"`,
		"flowgen_cache_hits_total 1",
		"flowgen_cache_misses_total 1",
		`flowgen_model_version{model="alu"} 1`,
		`flowgen_model_registrations_total{model="alu"}`,
		"flowgen_model_reloads_total 0",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", exposition)
	}
}

// TestServerStatsQuantiles checks /v1/stats serves histogram-backed
// percentiles that are ordered and consistent with the max.
func TestServerStatsQuantiles(t *testing.T) {
	m := testModel("alu", 5)
	_, ts := newTestServer(t, m)
	texts := m.Space.RandomUnique(rand.New(rand.NewSource(4)), 6)
	for _, f := range texts {
		var pr predictResponse
		postJSON(t, ts.URL+"/v1/predict", predictRequest{Flows: []string{f.String(m.Space)}}, &pr)
	}
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	ep := stats.Endpoints["predict"]
	if ep.Requests != int64(len(texts)) {
		t.Fatalf("requests %d, want %d", ep.Requests, len(texts))
	}
	if ep.P50Micro <= 0 || ep.P50Micro > ep.P95Micro || ep.P95Micro > ep.P99Micro {
		t.Fatalf("quantiles not ordered: p50=%v p95=%v p99=%v", ep.P50Micro, ep.P95Micro, ep.P99Micro)
	}
	if ep.P99Micro > ep.MaxMicro {
		t.Fatalf("p99 %v exceeds max %v", ep.P99Micro, ep.MaxMicro)
	}
	if ep.MeanMicro <= 0 {
		t.Fatalf("mean %v", ep.MeanMicro)
	}
}
