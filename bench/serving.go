package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowgen/internal/flow"
	"flowgen/internal/loop"
	"flowgen/internal/obs"
	"flowgen/internal/serve"
	"flowgen/internal/synth"
)

// The load comes from one process with at most two senders, each on
// its own keep-alive loopback connection: the machine has two cores.
const senders = 2

const (
	hotFlows     = 256  // flows re-asked often enough to stay cached
	hotShare     = 0.2  // share of predicts drawn from the hot set
	verifyShare  = 0.01 // share of scored predicts re-checked offline
	streamLen    = 1 << 15
	sloMs        = 50.0 // predict latency limit
	recommendGap = 125  // every 125th serve_loop request is a recommend
	recommendTop = 10
	recommendN   = 2000
)

// sample is one request's timing. An open-loop request is timed from
// when it was due, so a stall also charges the requests queued behind it.
type sample struct {
	late time.Duration // send start minus due time
	lat  time.Duration // response end minus due time
	ok   bool
}

// openLoop sends n = rate×dur requests on a fixed schedule from the
// senders and returns their samples in schedule order. Request k is due
// at k/rate; send(c, k) issues it on sender c and reports success.
func openLoop(rate float64, dur time.Duration, send func(c, k int) bool) []sample {
	n := int(rate * dur.Seconds())
	out := make([]sample, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				time.Sleep(time.Until(due))
				sent := time.Now()
				ok := send(c, k)
				out[k] = sample{late: sent.Sub(due), lat: time.Since(due), ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps every sender busy back to back for dur and returns
// the successful requests per second in each window of the phase.
func closedLoop(dur, window time.Duration, send func(c int) bool) []float64 {
	counts := make([]atomic.Int64, int(dur/window))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				if send(c) {
					if w := int(time.Since(start) / window); w < len(counts) {
						counts[w].Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	rates := make([]float64, len(counts))
	for i := range counts {
		rates[i] = float64(counts[i].Load()) / window.Seconds()
	}
	return rates
}

// latencies splits samples by pred into two ascending millisecond lists.
func latencies(samples []sample, pred func(k int) bool) (yes, no []float64) {
	for k, s := range samples {
		ms := float64(s.lat.Nanoseconds()) / 1e6
		if !s.ok {
			ms = math.Inf(1) // a failed request misses every latency limit
		}
		if pred(k) {
			yes = append(yes, ms)
		} else {
			no = append(no, ms)
		}
	}
	sort.Float64s(yes)
	sort.Float64s(no)
	return yes, no
}

// traffic is the seeded predict stream: a hot set that the cache serves
// after its first request, and flows never seen before.
type traffic struct {
	hot    [][]byte // request bodies of the hot flows
	bodies [][]byte
	verify []bool // seeded share of requests re-scored offline
}

func newTraffic(seed int64, space flow.Space) *traffic {
	rng := rand.New(rand.NewSource(seed))
	body := func(f flow.Flow) []byte {
		b, _ := json.Marshal(map[string][]string{"flows": {f.String(space)}}) // strings always encode
		return b
	}
	t := &traffic{}
	for _, f := range space.RandomUnique(rng, hotFlows) {
		t.hot = append(t.hot, body(f))
	}
	for i := 0; i < streamLen; i++ {
		b := body(space.Random(rng))
		if rng.Float64() < hotShare {
			b = t.hot[rng.Intn(hotFlows)]
		}
		t.bodies = append(t.bodies, b)
		t.verify = append(t.verify, rng.Float64() < verifyShare)
	}
	return t
}

// client is one sender's keep-alive connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

// do sends one request and returns the body and Server-Timing header;
// any status but 200 is an error.
func (c *client) do(method, path string, body []byte, traceID string) ([]byte, string, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	if traceID != "" {
		req.Header.Set("X-Request-ID", traceID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, resp.Header.Get("Server-Timing"), err
}

// system is one in-process flowserve, wired as cmd/flowserve wires it.
type system struct {
	reg    *serve.Registry
	srv    *serve.Server
	web    *http.Server
	served chan struct{} // closed when the web server has stopped
	base   string
	lp     *loop.Loop
	eng    *synth.Engine // the loop's labeling engine
	dir    string        // the loop's journal directory
}

// startSystem serves serve.BootstrapModel with the default server
// config on a loopback port; with retrain > 0 it also builds the online
// loop on alu8 (not yet running) with a journal in a fresh directory.
// It returns once the first predict has been answered.
func startSystem(seed int64, retrain time.Duration) (*system, error) {
	s := &system{reg: serve.NewRegistry()}
	s.reg.Register(serve.BootstrapModel("bench"))
	cfg := serve.DefaultServerConfig()
	cfg.Obs = obs.Default()
	s.srv = serve.NewServer(s.reg, cfg)
	if retrain > 0 {
		if err := s.attachLoop(seed, retrain); err != nil {
			s.close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.web = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.web.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	c := newClient(s.base)
	defer c.hc.CloseIdleConnections()
	space := s.model().Space
	first, _ := json.Marshal(map[string][]string{"flows": {space.Random(rand.New(rand.NewSource(seed))).String(space)}})
	if _, _, err := c.do(http.MethodPost, "/v1/predict", first, ""); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// attachLoop builds the loop like `flowserve -loop alu8` with one label
// worker, 400 steps per retrain, and retraining on a wall-clock cadence
// only (the count trigger is off).
func (s *system) attachLoop(seed int64, retrain time.Duration) error {
	design, err := buildDesign("alu8")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	if s.dir, err = os.MkdirTemp(buildDir, "loop-"); err != nil {
		return err
	}
	s.eng = synth.NewEngine(design, s.model().Space)
	s.eng.RegisterMetrics(obs.Default())
	s.lp, err = loop.New(s.reg, s.eng, loop.Config{
		LabelWorkers:    1,
		StepsPerRound:   400,
		RetrainEvery:    1 << 30,
		RetrainInterval: retrain,
		MinLabeled:      32,
		JournalPath:     filepath.Join(s.dir, "journal.labels"),
		Seed:            seed,
		Obs:             obs.Default(),
	})
	if err != nil {
		return err
	}
	s.srv.SetLoop(s.lp)
	return nil
}

func (s *system) model() *serve.Model {
	m, _ := s.reg.Get("") // the one registered model
	return m
}

// close stops the web server, the loop's journal and the batchers.
func (s *system) close() {
	if s.web != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.web.Shutdown(ctx) // a timeout only cuts idle keep-alives short
		cancel()
		<-s.served
	}
	if s.lp != nil {
		if err := s.lp.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: closing loop journal:", err)
		}
	}
	s.srv.Close()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// predictResponse is the part of a /v1/predict response the checks read.
type predictResponse struct {
	Version int `json:"version"`
	Results []struct {
		Flow   string    `json:"flow"`
		Probs  []float64 `json:"probs"`
		Cached bool      `json:"cached"`
	} `json:"results"`
}

// scored is a served prediction kept for the offline bit-for-bit check.
type scored struct {
	text    string
	version int
	probs   []float64
}

// load drives one system and keeps what the checks and metrics need.
type load struct {
	r       *run
	sys     *system
	tr      *traffic
	clients []*client
	next    atomic.Int64 // position in the traffic stream

	mu         sync.Mutex
	toVerify   []scored
	predicts   int64
	recommends int64
}

func newLoad(r *run, sys *system) *load {
	l := &load{r: r, sys: sys, tr: newTraffic(r.seed, sys.model().Space)}
	for c := 0; c < senders; c++ {
		l.clients = append(l.clients, newClient(sys.base))
	}
	return l
}

func (l *load) close() {
	for _, c := range l.clients {
		c.hc.CloseIdleConnections()
	}
}

// predict sends the stream's next flow from sender c.
func (l *load) predict(c int) bool {
	i := int(l.next.Add(1)-1) % streamLen
	return l.send(c, "predict", l.tr.bodies[i], l.tr.verify[i])
}

// recommend asks for the top angels and devils of a pool seeded by k.
func (l *load) recommend(c, k int) bool {
	body := fmt.Sprintf(`{"top_k":%d,"pool":%d,"seed":%d}`, recommendTop, recommendN, l.r.seed*1_000_003+int64(k)+1)
	return l.send(c, "recommend", []byte(body), false)
}

// send posts one request and validates the response; when traced it
// records the request as a span with the server's Server-Timing spans
// as children.
func (l *load) send(c int, endpoint string, body []byte, verify bool) bool {
	l.mu.Lock()
	count := &l.predicts
	if endpoint == "recommend" {
		count = &l.recommends
	}
	*count++
	n := *count
	l.mu.Unlock()
	var traceID string
	if l.r.tr != nil {
		traceID = fmt.Sprintf("%s-%d-%d", endpoint, l.r.seed, n)
	}
	t0 := time.Now()
	resp, timing, err := l.clients[c].do(http.MethodPost, "/v1/"+endpoint, body, traceID)
	t1 := time.Now()
	if err == nil {
		err = l.validate(endpoint, resp, verify)
	}
	l.r.check(err == nil, "%s: %v", endpoint, err)
	if err == nil && l.r.tr != nil {
		recordRequest(l.r.tr, endpoint, traceID, t0, t1, timing)
	}
	return err == nil
}

func (l *load) validate(endpoint string, body []byte, verify bool) error {
	if endpoint == "recommend" {
		var rec struct {
			PoolSize int               `json:"pool_size"`
			Angels   []json.RawMessage `json:"angels"`
			Devils   []json.RawMessage `json:"devils"`
		}
		if err := json.Unmarshal(body, &rec); err != nil {
			return err
		}
		if rec.PoolSize != recommendN || len(rec.Angels) != recommendTop || len(rec.Devils) != recommendTop {
			return fmt.Errorf("pool %d with %d angels and %d devils", rec.PoolSize, len(rec.Angels), len(rec.Devils))
		}
		return nil
	}
	var p predictResponse
	if err := json.Unmarshal(body, &p); err != nil {
		return err
	}
	if len(p.Results) != 1 || len(p.Results[0].Probs) != 7 {
		return fmt.Errorf("want one result with 7 probabilities, got %s", body)
	}
	if verify && !p.Results[0].Cached {
		l.mu.Lock()
		l.toVerify = append(l.toVerify, scored{p.Results[0].Flow, p.Version, p.Results[0].Probs})
		l.mu.Unlock()
	}
	return nil
}

// recordRequest stores a request span and lays the Server-Timing spans
// out inside it: parse, then score, with the batcher wait at the start
// of score (the header gives durations, not offsets).
func recordRequest(tr *tracer, endpoint, traceID string, t0, t1 time.Time, timing string) {
	id := tr.add(span{Name: "http." + endpoint, Trace: traceID, Start: tr.at(t0), End: tr.at(t1)})
	spans := parseServerTiming(timing)
	prefix := "serve."
	if endpoint == "recommend" {
		prefix = "serve.recommend_"
	}
	at := tr.at(t0)
	if d, ok := spans["parse"]; ok {
		tr.add(span{Name: prefix + "parse", Trace: traceID, Parent: id, Start: at, End: at + d})
		at += d
	}
	d, ok := spans["score"]
	if !ok {
		return
	}
	score := tr.add(span{Name: prefix + "score", Trace: traceID, Parent: id, Start: at, End: at + d})
	if b, ok := spans["batch"]; ok {
		tr.add(span{Name: "serve.batch", Trace: traceID, Parent: score, Start: at, End: at + b})
	}
}

// parseServerTiming reads "name;dur=1.23, ..." (milliseconds) into
// nanoseconds per name.
func parseServerTiming(h string) map[string]int64 {
	out := map[string]int64{}
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		if ms, err := strconv.ParseFloat(dur, 64); err == nil {
			out[name] += int64(ms * 1e6)
		}
	}
	return out
}

// warm sends each hot flow once, so the cache holds the hot set.
func (l *load) warm() {
	for _, b := range l.tr.hot {
		l.send(0, "predict", b, false)
	}
}

// serverStats is the part of GET /v1/stats the serve layer reads.
type serverStats struct {
	Batchers map[string]serve.BatcherStats `json:"batchers"`
	Cache    serve.CacheStats              `json:"cache"`
}

// observation is GET /metrics, GET /v1/stats and the harness's request
// counts at one moment.
type observation struct {
	metrics              string
	stats                serverStats
	predicts, recommends int64
}

func (l *load) observe() observation {
	var o observation
	b, _, err := l.clients[0].do(http.MethodGet, "/metrics", nil, "")
	l.r.check(err == nil, "GET /metrics: %v", err)
	o.metrics = string(b)
	b, _, err = l.clients[0].do(http.MethodGet, "/v1/stats", nil, "")
	if err == nil {
		err = json.Unmarshal(b, &o.stats)
	}
	l.r.check(err == nil, "GET /v1/stats: %v", err)
	l.mu.Lock()
	o.predicts, o.recommends = l.predicts, l.recommends
	l.mu.Unlock()
	return o
}

// promValue returns one series' value from a Prometheus text
// exposition, NaN when the series is absent.
func promValue(text, series string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			if v, err := strconv.ParseFloat(rest, 64); err == nil {
				return v
			}
		}
	}
	return math.NaN()
}

// promDelta is a series' growth between two expositions; a series
// absent from the first had not been created yet and counts from 0.
func promDelta(before, after, series string) float64 {
	a := promValue(before, series)
	if math.IsNaN(a) {
		a = 0
	}
	return promValue(after, series) - a
}

// checkCounts compares the server's request counters between two
// observations with the requests the harness sent in between.
func (l *load) checkCounts(a, b observation) {
	for _, c := range []struct {
		endpoint string
		want     int64
	}{{"predict", b.predicts - a.predicts}, {"recommend", b.recommends - a.recommends}} {
		got := promDelta(a.metrics, b.metrics, `flowgen_http_request_duration_seconds_count{endpoint="`+c.endpoint+`"}`)
		if c.want == 0 && math.IsNaN(got) {
			continue // the endpoint was never hit
		}
		l.r.check(got == float64(c.want), "/metrics counted %v %s requests, the harness sent %d",
			got, c.endpoint, c.want)
	}
}

// setServeLayers derives serve.* from the request spans and the
// /v1/stats difference between two observations.
func setServeLayers(r *run, a, b observation) {
	spans := r.tr.snapshot()
	dur, n := totals(spans)
	self := selfTimes(spans)
	mean := func(total, count int64) float64 {
		if count == 0 {
			return 0
		}
		return float64(total) / float64(count)
	}
	r.set("serve.parse_us", mean(dur["serve.parse"], n["serve.parse"])/1e3, "us")
	r.set("serve.batch_us", mean(dur["serve.batch"], n["serve.batch"])/1e3, "us")
	r.set("serve.score_us", mean(self["serve.score"], n["serve.score"])/1e3, "us")
	r.set("serve.http_us", mean(self["http.predict"], n["http.predict"])/1e3, "us")
	r.set("serve.recommend_score_ms", mean(dur["serve.recommend_score"], n["serve.recommend_score"])/1e6, "ms")
	var x, y serve.BatcherStats // one model, so one batcher
	for _, s := range a.stats.Batchers {
		x = s
	}
	for _, s := range b.stats.Batchers {
		y = s
	}
	batches := y.Batches - x.Batches
	r.set("serve.batches", float64(batches), "count")
	r.set("serve.mean_batch", mean(y.BatchedFlows-x.BatchedFlows, batches), "count")
	r.set("serve.shed", float64(y.Rejected-x.Rejected), "count")
	r.set("serve.cancelled", float64(y.Cancelled-x.Cancelled), "count")
	hits, misses := b.stats.Cache.Hits-a.stats.Cache.Hits, b.stats.Cache.Misses-a.stats.Cache.Misses
	r.set("serve.cache_hit_rate", mean(hits, hits+misses), "ratio")
	if c := promDelta(a.metrics, b.metrics, `flowgen_predictor_compile_seconds_sum{precision="f32"}`); c > 0 {
		r.set("nn.compile_ms", c*1e3, "ms")
	}
}

// setLatency records p50 and, when the sample supports it, p99.
func setLatency(r *run, name string, ms []float64) {
	r.set(strings.Replace(name, "%", "p50", 1), quantile(ms, 0.5), "ms")
	if v, ok := tail(ms, 0.99); ok {
		r.set(strings.Replace(name, "%", "p99", 1), v, "ms")
	}
}

// setLateness records how late the open-loop generator sent requests.
func setLateness(r *run, samples []sample) {
	late := make([]float64, len(samples))
	for i, s := range samples {
		late[i] = float64(s.late.Nanoseconds()) / 1e6
	}
	sort.Float64s(late)
	if len(late) > 0 {
		r.set("harness.gen_late_max_ms", late[len(late)-1], "ms")
		r.set("harness.gen_late_p99_ms", quantile(late, 0.99), "ms")
	}
}

// servePhases are serve_predict's open-loop rates (req/s) and their
// shares of the run; a closed-loop saturation phase takes the rest.
var servePhases = []struct{ rate, share float64 }{{250, 0.3}, {500, 0.2}, {1000, 0.2}}

const saturationShare = 0.2

// servePredict serves single-flow predicts at fixed rates, then at
// saturation. Only the serving path runs: HTTP, JSON, parse, cache,
// batcher and the f32 predictor.
func servePredict(r *run) error {
	sys, setup, err := timeMedian(setups, func() (*system, error) { return startSystem(r.seed, 0) }, (*system).close)
	if err != nil {
		return err
	}
	defer sys.close()
	r.set("setup_s", setup, "s")
	l := newLoad(r, sys)
	defer l.close()
	l.warm()

	before := l.observe()
	var all []sample
	var allMs []float64
	for _, ph := range servePhases {
		samples := openLoop(ph.rate, time.Duration(ph.share*float64(r.seconds)), func(c, _ int) bool { return l.predict(c) })
		ms, _ := latencies(samples, func(int) bool { return true })
		setLatency(r, fmt.Sprintf("predict_%%_ms.r%d", int(ph.rate)), ms)
		all = append(all, samples...)
		allMs = append(allMs, ms...)
	}
	// The median of short windows keeps a burst of host noise from
	// moving the saturation rate.
	rates := closedLoop(time.Duration(saturationShare*float64(r.seconds)), 250*time.Millisecond, l.predict)
	after := l.observe()

	sort.Float64s(allMs)
	r.set("latency_ms", r.metrics["predict_p50_ms.r250"].Value, "ms")
	r.set("predict_slo_miss_frac", missFrac(allMs, sloMs), "ratio")
	r.set("throughput_per_s", median(rates), "1/s")
	setLateness(r, all)
	l.checkCounts(before, after)
	l.verifyScores()
	if r.tr != nil {
		setServeLayers(r, before, after)
	}
	return nil
}

// verifyScores re-scores the kept sample with Model.PredictFlows on the
// snapshot that served it; each must match bit for bit.
func (l *load) verifyScores() {
	m := l.sys.model()
	for _, s := range l.toVerify {
		f, err := m.Space.Parse(s.text)
		if err != nil || s.version != m.Version {
			l.r.check(false, "served %q from version %d (serving %d): %v", s.text, s.version, m.Version, err)
			continue
		}
		probs, err := m.PredictFlows(context.Background(), []flow.Flow{f}, 0)
		same := err == nil && len(probs) == 1 && len(probs[0]) == len(s.probs)
		for i := 0; same && i < len(s.probs); i++ {
			same = math.Float64bits(probs[0][i]) == math.Float64bits(s.probs[i])
		}
		l.r.check(same, "flow %q: served %v, PredictFlows %v (err %v)", s.text, s.probs, probs, err)
	}
}

// serveLoop serves the serve_predict mix at 250 req/s, with every
// recommendGap-th request a /v1/recommend, while the online loop labels,
// retrains and publishes on the same cores.
func serveLoop(r *run) error {
	sys, setup, err := timeMedian(setups, func() (*system, error) { return startSystem(r.seed, r.seconds/5) }, (*system).close)
	if err != nil {
		return err
	}
	defer sys.close()
	r.set("setup_s", setup, "s")
	l := newLoad(r, sys)
	defer l.close()
	l.warm()

	before := l.observe()
	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sys.lp.Run(ctx)
	}()
	t0 := time.Now()
	var watch loopWatch
	wg.Add(1)
	go func() {
		defer wg.Done()
		watch = watchLoop(ctx, sys.lp, t0)
	}()
	isRecommend := func(k int) bool { return k%recommendGap == recommendGap-1 }
	samples := openLoop(250, r.seconds, func(c, k int) bool {
		if isRecommend(k) {
			return l.recommend(c, k)
		}
		return l.predict(c)
	})
	// Stopping cancels the batch being labeled, which the loop counts as
	// label errors, so the error check reads the status taken before.
	running := sys.lp.Status()
	stop()
	wg.Wait()
	waitIdle(sys.eng)
	after := l.observe()
	st := sys.lp.Status()

	rec, pred := latencies(samples, isRecommend)
	setLatency(r, "predict_%_ms.r250", pred)
	r.set("latency_ms", r.metrics["predict_p50_ms.r250"].Value, "ms")
	r.set("predict_slo_miss_frac", missFrac(pred, sloMs), "ratio")
	r.set("recommend_p50_ms", quantile(rec, 0.5), "ms")
	r.set("throughput_per_s", float64(watch.labeled)/watch.lastLabel.Seconds(), "1/s")
	r.set("loop_retrains", float64(st.Retrains), "count")
	setLateness(r, samples)
	l.checkCounts(before, after)
	r.check(promValue(after.metrics, "flowgen_loop_labeled_total") == float64(st.Labeled),
		"/metrics flowgen_loop_labeled_total %v, Status().Labeled %d",
		promValue(after.metrics, "flowgen_loop_labeled_total"), st.Labeled)
	r.check(running.LabelErrors == 0 && running.LabelerPanics == 0 && running.RetrainPanics == 0,
		"loop errors: %d label errors, %d labeler panics, %d retrain panics",
		running.LabelErrors, running.LabelerPanics, running.RetrainPanics)
	if r.tr != nil {
		setServeLayers(r, before, after)
		for _, c := range []struct {
			name string
			v    int64
		}{
			{"loop.labeled", st.Labeled}, {"loop.observed", st.Observed}, {"loop.dropped", st.Dropped},
			{"loop.explored", st.Explored}, {"loop.retrains", st.Retrains}, {"loop.published", st.Published},
			{"loop.rejected", st.Rejected}, {"loop.persisted", int64(st.Persisted)},
			{"loop.journal_errors", st.JournalErrors},
		} {
			r.set(c.name, float64(c.v), "count")
		}
		if len(watch.rounds) > 0 {
			r.set("loop.retrain_round_ms", median(watch.rounds), "ms")
		}
		st := sys.eng.MemoStats()
		setSynthLayer(r, st)
		r.set("synth.flows", float64(st.Flows), "count")
		// The retrainer trains inside the loop; its steps are read from
		// the trainer's own series.
		steps := promDelta(before.metrics, after.metrics, "flowgen_train_step_duration_seconds_count")
		r.set("train.steps", steps, "count")
		if steps > 0 {
			r.set("train.step_ms", promDelta(before.metrics, after.metrics, "flowgen_train_step_duration_seconds_sum")*1e3/steps, "ms")
		}
	}
	return nil
}

// waitIdle waits (at most 15 s) until the engine's memo counters stop
// moving: a stopped loop abandons its labeling batch, but the batch's
// evaluation runs to the end, and the next pass must start on idle cores.
func waitIdle(eng *synth.Engine) {
	prev := eng.MemoStats()
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		time.Sleep(300 * time.Millisecond)
		cur := eng.MemoStats()
		if cur == prev {
			return
		}
		prev = cur
	}
}

// loopWatch is what polling Loop.Status every 5 ms shows.
type loopWatch struct {
	labeled   int64         // labels landed by lastLabel
	lastLabel time.Duration // when the last labeling batch landed, since the start
	rounds    []float64     // retrain round durations, ms
}

// watchLoop polls Loop.Status every 5 ms until ctx ends. Labels land a
// batch at a time, so the labeling rate is taken up to the last batch,
// not over the whole run. A retrain round lasts from retrains
// incrementing to published+rejected incrementing.
func watchLoop(ctx context.Context, lp *loop.Loop, start time.Time) loopWatch {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	var w loopWatch
	var roundStart time.Time
	prev := lp.Status()
	for {
		select {
		case <-ctx.Done():
			return w
		case <-tick.C:
		}
		st := lp.Status()
		now := time.Now()
		if st.Labeled > prev.Labeled {
			w.labeled, w.lastLabel = st.Labeled, now.Sub(start)
		}
		if st.Retrains > prev.Retrains {
			roundStart = now
		}
		if !roundStart.IsZero() && st.Published+st.Rejected > prev.Published+prev.Rejected {
			w.rounds = append(w.rounds, float64(now.Sub(roundStart).Nanoseconds())/1e6)
			roundStart = time.Time{}
		}
		prev = st
	}
}
