package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"flowgen/internal/core"
	"flowgen/internal/fault"
	"flowgen/internal/flow"
	"flowgen/internal/nn"
	"flowgen/internal/obs"
	"flowgen/internal/synth"
	"flowgen/internal/tensor"
	"flowgen/internal/train"
)

// LoopController is the hook the continuous flow-development loop
// (internal/loop) registers with SetLoop. serve stays decoupled from
// the loop's implementation — it only feeds observations in and
// surfaces status out:
//
//   - Observe receives flows that crossed the serving endpoints
//     (predict inputs, recommend selections) as labeling candidates;
//   - SubmitLabel records an externally measured QoR (/v1/label);
//   - LoopStatus returns the loop's JSON-serializable status snapshot
//     (/v1/loop/status, and the loop block of /v1/stats);
//   - Drain quiesces the loop for shutdown — stop intake, finish
//     in-flight labeling until ctx expires, fsync the journal — and
//     returns a JSON-serializable report (POST /v1/loop/drain, and the
//     ordered-shutdown path in cmd/flowserve).
type LoopController interface {
	// Observe receives the request context so the loop can stamp its
	// log lines with the originating trace ID.
	Observe(ctx context.Context, flows []flow.Flow)
	SubmitLabel(flowText string, q synth.QoR) (accepted bool, size int, err error)
	LoopStatus() any
	Drain(ctx context.Context) (any, error)
}

// ServerConfig tunes the HTTP serving layer.
type ServerConfig struct {
	// Workers shards each request's scoring across prediction workers
	// (≤0 selects GOMAXPROCS).
	Workers   int
	CacheSize int // scored-flow memo capacity (≤0 disables)
	// MaxFlows bounds how many flows one predict request may submit,
	// and MaxPool how large a recommendation pool may be, submitted or
	// server-generated (both guard against a single request
	// monopolizing the service). Request bodies are bounded by the
	// larger of the two (Server.maxBody).
	MaxFlows int
	MaxPool  int
	// RequestTimeout is the server-side deadline stamped on every
	// request context before the handler runs, so it propagates through
	// predictor → loop; a request that exceeds it fails with 504 instead
	// of holding a connection open. ≤0 disables (clients and proxies
	// still cancel via their own contexts).
	RequestTimeout time.Duration
	// Obs is the metric registry the server records into and GET
	// /metrics exposes. nil gives the server a private registry —
	// cmd/flowserve passes obs.Default() so server, loop and process
	// metrics share one exposition.
	Obs *obs.Registry
}

// DefaultServerConfig returns production-shaped limits.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		CacheSize:      4096,
		MaxFlows:       1024,
		MaxPool:        200000,
		RequestTimeout: 30 * time.Second,
	}
}

// endpointObs bundles one logical endpoint's instruments: a latency
// histogram (whose count doubles as the request counter), an error
// counter, and a recovered-panic counter, all registered on the
// server's obs registry.
type endpointObs struct {
	hist   *obs.Histogram
	errors *obs.Counter
	panics *obs.Counter
}

// EndpointStats is the JSON form of one endpoint's counters. Every
// field is cumulative over the process lifetime: requests/errors are
// running totals, mean is total-time/total-requests, max the largest
// single request ever, and the quantiles are extracted from the same
// lifetime histogram. There is deliberately no reset or sliding
// window here — windowed views (requests/sec, p99 over the last
// minute) come from scraping GET /metrics periodically and letting the
// collector difference the counters (rate()/histogram math), which
// composes across replicas; /v1/stats stays a one-shot cumulative
// debugging view.
type EndpointStats struct {
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	MeanMicro float64 `json:"mean_latency_us"`
	MaxMicro  float64 `json:"max_latency_us"`
	P50Micro  float64 `json:"p50_latency_us"`
	P95Micro  float64 `json:"p95_latency_us"`
	P99Micro  float64 `json:"p99_latency_us"`
}

// Server exposes a Registry over JSON HTTP: prediction (memoized in a
// Cache), top-k angel/devil recommendation (streamed, never
// materializing pool-sized tensors), model listing and hot reload,
// health and stats. Every predict and recommend scores its misses in
// one Model.PredictFlows call on the snapshot it resolved.
type Server struct {
	Registry *Registry
	cfg      ServerConfig
	cache    *Cache
	obs      *obs.Registry
	start    time.Time

	// draining flips once a drain has been requested (endpoint or
	// shutdown path); /readyz turns 503 so load balancers stop routing
	// here while /healthz keeps reporting the process alive.
	draining atomic.Bool

	loop    atomic.Value // LoopController, when a loop is attached
	metrics sync.Map     // endpoint name → *endpointObs
	stages  sync.Map     // stage name → *obs.Histogram (span timings)
}

// SetLoop attaches the continuous flow-development loop: served flows
// start feeding its labeling queue and the loop endpoints come alive.
func (s *Server) SetLoop(lc LoopController) { s.loop.Store(&lc) }

func (s *Server) getLoop() LoopController {
	if v := s.loop.Load(); v != nil {
		return *v.(*LoopController)
	}
	return nil
}

// observe forwards flows to the attached loop, if any.
func (s *Server) observe(ctx context.Context, flows []flow.Flow) {
	if lc := s.getLoop(); lc != nil {
		lc.Observe(ctx, flows)
	}
}

// NewServer wires a server over the registry.
func NewServer(reg *Registry, cfg ServerConfig) *Server {
	if cfg.MaxFlows < 1 {
		cfg.MaxFlows = 1
	}
	if cfg.MaxPool < 1 {
		cfg.MaxPool = 1
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	s := &Server{
		Registry: reg,
		cfg:      cfg,
		cache:    NewCache(cfg.CacheSize),
		obs:      cfg.Obs,
		start:    time.Now(),
	}
	// Cache and model-registry health ride the same exposition: the
	// cache keeps its own atomics (callback-backed series), the model
	// registry gains version gauges and registration counters.
	s.obs.CounterFunc("flowgen_cache_hits_total", "scored-flow cache hits",
		func() int64 { return s.cache.hits.Load() })
	s.obs.CounterFunc("flowgen_cache_misses_total", "scored-flow cache misses",
		func() int64 { return s.cache.misses.Load() })
	s.obs.CounterFunc("flowgen_cache_evictions_total", "scored-flow cache LRU evictions",
		func() int64 { return s.cache.evicts.Load() })
	s.obs.GaugeFunc("flowgen_cache_size", "scored-flow cache resident entries",
		func() float64 { return float64(s.cache.Stats().Size) })
	reg.SetObs(s.obs)
	return s
}

// Close flips /readyz to 503 — the first step of an ordered shutdown,
// so load balancers stop routing here before intake stops. Requests
// still arriving are served; stopping HTTP intake is the http.Server's
// Shutdown. Close is idempotent.
func (s *Server) Close() { s.draining.Store(true) }

// Handler returns the routed HTTP handler. The model collection is
// RESTful — GET /v1/models, GET /v1/models/{name}, POST
// /v1/models/{name}/reload — with the original POST /v1/models/reload
// (body-addressed, bulk-capable) kept as a compatible alias; aliases
// share one metrics bucket per logical endpoint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReady))
	mux.HandleFunc("GET /v1/models", s.instrument("models", s.handleModels))
	mux.HandleFunc("GET /v1/models/{name}", s.instrument("model_get", s.handleModelGet))
	mux.HandleFunc("POST /v1/models/reload", s.instrument("reload", s.handleReload))
	mux.HandleFunc("POST /v1/models/{name}/reload", s.instrument("reload", s.handleModelReload))
	mux.HandleFunc("POST /v1/predict", s.instrument("predict", s.handlePredict))
	mux.HandleFunc("POST /v1/recommend", s.instrument("recommend", s.handleRecommend))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /v1/loop/status", s.instrument("loop_status", s.handleLoopStatus))
	mux.HandleFunc("POST /v1/loop/drain", s.instrument("loop_drain", s.handleLoopDrain))
	mux.HandleFunc("POST /v1/label", s.instrument("label", s.handleLabel))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// handleMetrics serves the Prometheus text exposition. It bypasses the
// JSON instrument wrapper (the body is text format, not an envelope)
// but still records into its own endpoint bucket, so scrape overhead is
// visible like any other endpoint's.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.endpointObs("metrics")
	t0 := time.Now()
	s.obs.Handler().ServeHTTP(w, r)
	m.hist.ObserveSince(t0)
}

// httpError is an error with a dedicated HTTP status and a stable
// machine-readable code for the error envelope.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, code: "bad_request", msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &httpError{status: http.StatusNotFound, code: "not_found", msg: fmt.Sprintf(format, args...)}
}

// errorEnvelope is the uniform JSON error body every endpoint returns:
// {"error":{"code":"...","message":"..."}}.
type errorEnvelope struct {
	Error errorInfo `json:"error"`
}

type errorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// renderError maps an error to its HTTP status and envelope code.
func renderError(err error) (int, errorEnvelope) {
	status, code := http.StatusInternalServerError, "internal"
	var he *httpError
	switch {
	case errors.As(err, &he):
		status = he.status
		code = he.code
		if code == "" {
			code = "internal"
		}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusGatewayTimeout, "timeout"
	}
	return status, errorEnvelope{Error: errorInfo{Code: code, Message: err.Error()}}
}

// endpointObs returns the shared instrument bucket for a logical
// endpoint — shared, so route aliases (legacy and RESTful reload)
// aggregate into one histogram/counter pair.
func (s *Server) endpointObs(name string) *endpointObs {
	if v, ok := s.metrics.Load(name); ok {
		return v.(*endpointObs)
	}
	eo := &endpointObs{
		hist: s.obs.DurationHistogram("flowgen_http_request_duration_seconds",
			"HTTP request latency by logical endpoint", obs.Label{Key: "endpoint", Value: name}),
		errors: s.obs.Counter("flowgen_http_request_errors_total",
			"HTTP requests answered with an error envelope", obs.Label{Key: "endpoint", Value: name}),
		panics: s.obs.Counter("flowgen_http_panics_total",
			"handler panics recovered into 500 responses", obs.Label{Key: "endpoint", Value: name}),
	}
	v, _ := s.metrics.LoadOrStore(name, eo)
	return v.(*endpointObs)
}

// stage returns the span histogram for one named request stage
// (parse/score/...), shared across endpoints.
func (s *Server) stage(name string) *obs.Histogram {
	if v, ok := s.stages.Load(name); ok {
		return v.(*obs.Histogram)
	}
	h := s.obs.DurationHistogram("flowgen_stage_duration_seconds",
		"per-stage span timings within a request", obs.Label{Key: "stage", Value: name})
	v, _ := s.stages.LoadOrStore(name, h)
	return v.(*obs.Histogram)
}

// maxBody bounds a request body, so an oversized one is refused before
// it is buffered: the most flows one request may carry (MaxPool, or
// MaxFlows if larger), each the longest flow text a registered model's
// space renders plus 16 bytes for its quotes, comma and a
// pretty-printer's indentation, and 4 KiB for the other fields.
func (s *Server) maxBody() int64 {
	perFlow := int64(s.Registry.maxFlowText() + 16)
	return 4<<10 + int64(max(s.cfg.MaxPool, s.cfg.MaxFlows))*perFlow
}

// instrument wraps a handler with request tracing, the per-endpoint
// latency histogram and error counter, the server-side request
// deadline, the request-body bound, panic isolation, and uniform JSON
// error rendering. The trace ID is honored from X-Request-ID (or
// generated), propagated to the handler through the request context —
// so predictor and loop log lines carry it — and echoed in the
// X-Request-ID response header; stage spans recorded along the way
// come back in Server-Timing. A handler panic is recovered into a 500 envelope with
// the stack logged: one poisoned request must never kill the process.
func (s *Server) instrument(name string, h func(*http.Request) (any, error)) http.HandlerFunc {
	m := s.endpointObs(name)
	run := func(r *http.Request) (body any, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				m.panics.Inc()
				slog.ErrorContext(r.Context(), "serve: handler panic recovered",
					"endpoint", name, "panic", rec, "stack", string(debug.Stack()))
				err = &httpError{status: http.StatusInternalServerError, code: "panic",
					msg: "internal error (recovered panic)"}
			}
		}()
		if fault.Enabled() {
			if err := fault.Hit("serve.http." + name); err != nil {
				return nil, err
			}
		}
		return h(r)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, tr := obs.WithTrace(r.Context(), r.Header.Get("X-Request-ID"))
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody())
		t0 := time.Now()
		body, err := run(r)
		d := time.Since(t0)
		m.hist.Observe(d.Nanoseconds())
		hdr := w.Header()
		hdr.Set("Content-Type", "application/json")
		hdr.Set("X-Request-ID", tr.ID)
		if st := tr.ServerTiming(); st != "" {
			hdr.Set("Server-Timing", st)
		}
		if err != nil {
			m.errors.Inc()
			status, env := renderError(err)
			slog.DebugContext(ctx, "serve: request failed",
				"endpoint", name, "status", status, "code", env.Error.Code, "dur_us", d.Microseconds())
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(env)
			return
		}
		slog.DebugContext(ctx, "serve: request served", "endpoint", name, "dur_us", d.Microseconds())
		json.NewEncoder(w).Encode(body)
	}
}

// ---------------------------------------------------------------- health

type healthResponse struct {
	Status        string  `json:"status"`
	Models        int     `json:"models"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealth(*http.Request) (any, error) {
	return healthResponse{Status: "ok", Models: len(s.Registry.List()),
		UptimeSeconds: time.Since(s.start).Seconds()}, nil
}

type readyResponse struct {
	Ready    bool `json:"ready"`
	Models   int  `json:"models"`
	Draining bool `json:"draining"`
	// Loop carries the attached loop's status snapshot (including its
	// degraded flag) so one readiness scrape shows the whole picture. A
	// degraded journal does NOT fail readiness — the server still
	// serves predictions and labels in memory.
	Loop any `json:"loop,omitempty"`
}

// handleReady serves GET /readyz — readiness, distinct from /healthz
// liveness: 503 once a drain/shutdown has begun or while no model is
// loadable, 200 otherwise. Load balancers route on this; orchestrators
// restart on /healthz.
func (s *Server) handleReady(*http.Request) (any, error) {
	resp := readyResponse{
		Models:   len(s.Registry.List()),
		Draining: s.draining.Load(),
	}
	if lc := s.getLoop(); lc != nil {
		resp.Loop = lc.LoopStatus()
	}
	resp.Ready = !resp.Draining && resp.Models > 0
	if !resp.Ready {
		reason := "draining"
		if resp.Models == 0 {
			reason = "no models loaded"
		}
		return nil, &httpError{status: http.StatusServiceUnavailable,
			code: "not_ready", msg: "not ready: " + reason}
	}
	return resp, nil
}

// ---------------------------------------------------------------- models

// ModelInfo describes one registered model.
type ModelInfo struct {
	Name     string    `json:"name"`
	Version  int       `json:"version"`
	Default  bool      `json:"default"`
	Classes  int       `json:"classes"`
	Alphabet []string  `json:"alphabet"`
	M        int       `json:"m"`
	Params   int       `json:"params"`
	Path     string    `json:"path,omitempty"`
	LoadedAt time.Time `json:"loaded_at"`
}

func modelInfo(m *Model, def string) ModelInfo {
	return ModelInfo{
		Name: m.Name, Version: m.Version, Default: m.Name == def,
		Classes: m.Arch.NumClasses, Alphabet: m.Space.Alphabet, M: m.Space.M,
		Params: m.Net.NumParams(), Path: m.Path, LoadedAt: m.LoadedAt,
	}
}

// handleModelGet serves GET /v1/models/{name}: one model's metadata,
// 404 when the name is not registered.
func (s *Server) handleModelGet(r *http.Request) (any, error) {
	name := r.PathValue("name")
	m, err := s.Registry.Get(name)
	if err != nil {
		return nil, notFound("%s", err.Error())
	}
	return modelInfo(m, s.Registry.DefaultName()), nil
}

func (s *Server) handleModels(*http.Request) (any, error) {
	def := s.Registry.DefaultName()
	models := s.Registry.List()
	out := struct {
		Default string      `json:"default"`
		Models  []ModelInfo `json:"models"`
	}{Default: def, Models: make([]ModelInfo, 0, len(models))}
	for _, m := range models {
		out.Models = append(out.Models, modelInfo(m, def))
	}
	return out, nil
}

type reloadRequest struct {
	Name string `json:"name"` // "" reloads every file-backed model
}

type reloadResult struct {
	Name    string `json:"name"`
	Version int    `json:"version,omitempty"`
	Error   string `json:"error,omitempty"`
}

// handleReload is the legacy bulk reload (POST /v1/models/reload with
// an optional name in the body); kept as a compatible alias of the
// RESTful per-model route.
func (s *Server) handleReload(r *http.Request) (any, error) {
	var req reloadRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	var names []string
	if req.Name != "" {
		names = []string{req.Name}
	} else {
		for _, m := range s.Registry.List() {
			if m.Path != "" {
				names = append(names, m.Name)
			}
		}
		if len(names) == 0 {
			return nil, badRequest("no file-backed models to reload")
		}
	}
	return s.reloadModels(names)
}

// handleModelReload serves POST /v1/models/{name}/reload.
func (s *Server) handleModelReload(r *http.Request) (any, error) {
	name := r.PathValue("name")
	if _, err := s.Registry.Get(name); err != nil {
		return nil, notFound("%s", err.Error())
	}
	return s.reloadModels([]string{name})
}

func (s *Server) reloadModels(names []string) (any, error) {
	out := struct {
		Reloaded []reloadResult `json:"reloaded"`
	}{}
	failures := 0
	for _, name := range names {
		res := reloadResult{Name: name}
		if m, err := s.Registry.Reload(name); err != nil {
			res.Error = err.Error()
			failures++
		} else {
			res.Version = m.Version
		}
		out.Reloaded = append(out.Reloaded, res)
	}
	if failures == len(names) {
		// Nothing reloaded — surface it in the status code so callers
		// (deploy automation watching HTTP codes) see the failure
		// instead of a 200 with errors buried in the body. Partial
		// failures still return 200 with per-model errors.
		if len(names) == 1 {
			return nil, badRequest("%s", out.Reloaded[0].Error)
		}
		return nil, &httpError{status: http.StatusInternalServerError, code: "internal",
			msg: fmt.Sprintf("all %d reloads failed (first: %s)", len(names), out.Reloaded[0].Error)}
	}
	return out, nil
}

// --------------------------------------------------------------- predict

type predictRequest struct {
	Model string   `json:"model"` // "" = default model
	Flows []string `json:"flows"` // "t0; t1; ..." per flow
}

// FlowScore is one scored flow in a predict/recommend response.
type FlowScore struct {
	Flow       string    `json:"flow"`
	Class      int       `json:"class"`
	Confidence float64   `json:"confidence"`
	Probs      []float64 `json:"probs"`
	Cached     bool      `json:"cached,omitempty"`
}

type predictResponse struct {
	Model   string      `json:"model"`
	Version int         `json:"version"`
	Results []FlowScore `json:"results"`
}

func (s *Server) handlePredict(r *http.Request) (any, error) {
	var req predictRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if len(req.Flows) == 0 {
		return nil, badRequest("no flows submitted")
	}
	if len(req.Flows) > s.cfg.MaxFlows {
		return nil, badRequest("%d flows exceed the per-request limit of %d", len(req.Flows), s.cfg.MaxFlows)
	}
	m, err := s.Registry.Get(req.Model)
	if err != nil {
		return nil, notFound("%s", err.Error())
	}
	parseDone := obs.StartSpan(r.Context(), "parse", s.stage("parse"))
	flows, err := parseFlows(m, req.Flows)
	parseDone()
	if err != nil {
		return nil, err
	}
	// Every predicted flow is a labeling candidate for the loop.
	s.observe(r.Context(), flows)

	// Serve cache hits keyed by the resolved snapshot and score every
	// miss on it in one call, so all rows and the version header agree
	// even when a hot reload lands mid-request.
	resp := predictResponse{Model: m.Name, Version: m.Version, Results: make([]FlowScore, len(flows))}
	missIdx := make([]int, 0, len(flows))
	for i, f := range flows {
		if probs, ok := s.cache.Get(m.Name, m.Version, f.Key()); ok {
			resp.Results[i] = scoreOf(req.Flows[i], probs)
			resp.Results[i].Cached = true
			continue
		}
		missIdx = append(missIdx, i)
	}
	scoreDone := obs.StartSpan(r.Context(), "score", s.stage("score"))
	defer scoreDone()
	if len(missIdx) > 0 {
		probs, err := m.PredictFlows(r.Context(), pick(flows, missIdx), s.cfg.Workers)
		if err != nil {
			return nil, err
		}
		for j, i := range missIdx {
			resp.Results[i] = scoreOf(req.Flows[i], probs[j])
			s.cache.Put(m.Name, m.Version, flows[i].Key(), probs[j])
		}
	}
	slog.DebugContext(r.Context(), "predictor: scored request",
		"model", resp.Model, "version", resp.Version,
		"flows", len(flows), "cache_hits", len(flows)-len(missIdx))
	return resp, nil
}

// pick gathers the flows at the given indices.
func pick(flows []flow.Flow, idx []int) []flow.Flow {
	out := make([]flow.Flow, len(idx))
	for j, i := range idx {
		out[j] = flows[i]
	}
	return out
}

func scoreOf(text string, probs []float64) FlowScore {
	cls := train.Argmax(probs)
	return FlowScore{Flow: text, Class: cls, Confidence: probs[cls], Probs: probs}
}

func parseFlows(m *Model, texts []string) ([]flow.Flow, error) {
	out := make([]flow.Flow, len(texts))
	for i, text := range texts {
		f, err := m.Space.Parse(text)
		if err != nil {
			return nil, badRequest("flow %d: %s", i, err.Error())
		}
		out[i] = f
	}
	return out, nil
}

// ------------------------------------------------------------- recommend

type recommendRequest struct {
	Model string   `json:"model"`
	TopK  int      `json:"top_k"` // default 10
	Flows []string `json:"flows"` // explicit candidate pool, or:
	Pool  int      `json:"pool"`  // server-generated pool size
	Seed  int64    `json:"seed"`  // pool sampling seed (default 1)
}

type recommendResponse struct {
	Model    string      `json:"model"`
	Version  int         `json:"version"`
	PoolSize int         `json:"pool_size"`
	Angels   []FlowScore `json:"angels"`
	Devils   []FlowScore `json:"devils"`
}

// handleRecommend scores a candidate pool — submitted flows or a
// server-sampled pool — and returns the top-k angel-flows (highest
// class-0 confidence) and devil-flows (highest class-n confidence),
// exactly the paper's Section 3.3 selection rule. Pool encodings stream
// through chunk-sized buffers: a 100k-flow pool never materializes as
// one tensor inside the server.
func (s *Server) handleRecommend(r *http.Request) (any, error) {
	var req recommendRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.TopK <= 0 {
		req.TopK = 10
	}
	m, err := s.Registry.Get(req.Model)
	if err != nil {
		return nil, notFound("%s", err.Error())
	}

	var pool []flow.Flow
	switch {
	case len(req.Flows) > 0 && req.Pool > 0:
		return nil, badRequest("submit either flows or a pool size, not both")
	case len(req.Flows) > 0:
		if len(req.Flows) > s.cfg.MaxPool {
			return nil, badRequest("%d flows exceed the pool limit of %d", len(req.Flows), s.cfg.MaxPool)
		}
		if pool, err = parseFlows(m, req.Flows); err != nil {
			return nil, err
		}
	case req.Pool > 0:
		if req.Pool > s.cfg.MaxPool {
			return nil, badRequest("pool %d exceeds the limit of %d", req.Pool, s.cfg.MaxPool)
		}
		if !m.Space.Holds(req.Pool) {
			return nil, badRequest("pool %d exceeds the %v flows of model %s's space", req.Pool, m.Space.Count(), m.Name)
		}
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		pool = m.Space.RandomUnique(rand.New(rand.NewSource(seed)), req.Pool)
	default:
		return nil, badRequest("submit flows or a pool size")
	}

	scoreDone := obs.StartSpan(r.Context(), "score", s.stage("score"))
	probs, err := m.PredictFlows(r.Context(), pool, s.cfg.Workers)
	scoreDone()
	if err != nil {
		return nil, err
	}
	slog.DebugContext(r.Context(), "predictor: scored pool",
		"model", m.Name, "version", m.Version, "pool", len(pool))
	angels, devils := core.SelectFlows(core.ScoreFlows(pool, probs), m.Arch.NumClasses, req.TopK)

	resp := recommendResponse{Model: m.Name, Version: m.Version, PoolSize: len(pool)}
	render := func(sel []core.ScoredFlow) []FlowScore {
		out := make([]FlowScore, len(sel))
		for i, sf := range sel {
			out[i] = FlowScore{Flow: sf.Flow.String(m.Space), Class: sf.Class,
				Confidence: sf.Confidence, Probs: sf.Probs}
		}
		return out
	}
	resp.Angels, resp.Devils = render(angels), render(devils)
	// Feed the selected flows (not the whole pool, which may be 100k
	// server-sampled candidates) to the loop: the angels and devils are
	// exactly the flows whose true QoR the paper's iteration wants next.
	sel := make([]flow.Flow, 0, len(angels)+len(devils))
	for _, sf := range angels {
		sel = append(sel, sf.Flow)
	}
	for _, sf := range devils {
		sel = append(sel, sf.Flow)
	}
	s.observe(r.Context(), sel)
	return resp, nil
}

// ------------------------------------------------------------------ loop

var errLoopDisabled = &httpError{status: http.StatusNotFound, code: "loop_disabled",
	msg: "no flow-development loop is attached (start flowserve with -loop)"}

// handleLoopStatus serves GET /v1/loop/status.
func (s *Server) handleLoopStatus(*http.Request) (any, error) {
	lc := s.getLoop()
	if lc == nil {
		return nil, errLoopDisabled
	}
	return lc.LoopStatus(), nil
}

// handleLoopDrain serves POST /v1/loop/drain: quiesce intake, let the
// labeler flush its queue, fsync the journal, and report. The server
// flips to draining (readyz 503) before the loop drains, so no new
// traffic races the quiesce. Idempotent — repeat calls re-report.
func (s *Server) handleLoopDrain(r *http.Request) (any, error) {
	lc := s.getLoop()
	if lc == nil {
		return nil, errLoopDisabled
	}
	s.draining.Store(true)
	ctx := r.Context()
	if _, ok := ctx.Deadline(); !ok {
		// A drain must terminate even when no request timeout is
		// configured and the client waits forever.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
	}
	return lc.Drain(ctx)
}

type labelRequest struct {
	Flow   string  `json:"flow"`
	Area   float64 `json:"area"`
	Delay  float64 `json:"delay"`
	Gates  int     `json:"gates"`
	Ands   int     `json:"ands"`
	Levels int     `json:"levels"`
}

type labelResponse struct {
	Accepted    bool `json:"accepted"`
	DatasetSize int  `json:"dataset_size"`
}

// handleLabel serves POST /v1/label: explicit QoR submission for a
// flow, feeding the loop's training corpus directly (the trusted-client
// path for labels measured outside this server).
func (s *Server) handleLabel(r *http.Request) (any, error) {
	lc := s.getLoop()
	if lc == nil {
		return nil, errLoopDisabled
	}
	var req labelRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Flow == "" {
		return nil, badRequest("no flow submitted")
	}
	accepted, size, err := lc.SubmitLabel(req.Flow, synth.QoR{
		Area: req.Area, Delay: req.Delay,
		Gates: req.Gates, Ands: req.Ands, Levels: req.Levels,
	})
	if err != nil {
		return nil, badRequest("%s", err.Error())
	}
	return labelResponse{Accepted: accepted, DatasetSize: size}, nil
}

// ----------------------------------------------------------------- stats

type statsResponse struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	Cache         CacheStats               `json:"cache"`
	Reloads       int64                    `json:"reloads"`
	SIMD          string                   `json:"simd"` // the process's kernel tier
	CPUFeatures   string                   `json:"cpu_features,omitempty"`
	Loop          any                      `json:"loop,omitempty"` // loop.Status when a loop is attached
}

// BatcherStats was the per-model block of /v1/stats when single-flow
// predicts went through a micro-batcher. Nothing produces it now.
//
// Deprecated: kept only because bench/serving.go decodes /v1/stats into
// it; it goes with the next change to the benchmark.
type BatcherStats struct {
	Rejected, Cancelled, Batches, BatchedFlows int64
}

func (s *Server) handleStats(*http.Request) (any, error) {
	out := statsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Endpoints:     map[string]EndpointStats{},
		Cache:         s.cache.Stats(),
		Reloads:       s.Registry.Reloads(),
		SIMD:          tensor.ActiveSIMD().String(),
		CPUFeatures:   tensor.CPUFeatures(),
	}
	if lc := s.getLoop(); lc != nil {
		out.Loop = lc.LoopStatus()
	}
	s.metrics.Range(func(k, v any) bool {
		m := v.(*endpointObs)
		snap := m.hist.Snapshot()
		st := EndpointStats{
			Requests: int64(snap.Count),
			Errors:   m.errors.Value(),
			MaxMicro: float64(snap.MaxSeen) / 1e3,
			P50Micro: snap.Quantile(0.50) / 1e3,
			P95Micro: snap.Quantile(0.95) / 1e3,
			P99Micro: snap.Quantile(0.99) / 1e3,
		}
		if snap.Count > 0 {
			st.MeanMicro = float64(snap.Sum) / float64(snap.Count) / 1e3
		}
		out.Endpoints[k.(string)] = st
		return true
	})
	return out, nil
}

// decodeJSON strictly decodes a JSON request body. A body past
// maxBody is a 413.
func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &httpError{status: http.StatusRequestEntityTooLarge, code: "too_large",
				msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return badRequest("invalid request body: %s", err.Error())
	}
	return nil
}

// BootstrapModel builds a deterministic, freshly initialized in-memory
// model over the paper's flow space — enough to bring a server up with
// no model files (CI smoke tests, demos). The weights are untrained;
// real deployments load files produced by flowgen -save-model.
func BootstrapModel(name string) *Model {
	space := flow.PaperSpace()
	h, w := core.EncodeShape(space)
	arch := nn.FastArch(7)
	arch.InH, arch.InW = h, w
	return &Model{Name: name, Space: space, Arch: arch, Net: arch.Build(1)}
}
