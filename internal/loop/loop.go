// Package loop closes the paper's flow-development cycle inside the
// serving process: flows observed on the serving endpoints (plus
// server-sampled exploration flows) are labeled with true QoR through
// the prefix-memoized synthesis engine, grow a persistent training
// corpus, and a background retrainer periodically warm-starts a
// candidate network from the serving one, trains it on the grown
// corpus, gates it on held-out accuracy and publishes it through
// serve.Registry — a zero-downtime version bump under live traffic.
//
// Two goroutines run under Loop.Run:
//
//   - the labeler drains a bounded candidate queue in batches, tops
//     batches up with exploration samples, and evaluates them through
//     synth.Engine.EvaluateAll with a bounded worker count so labeling
//     never starves serving;
//   - the retrainer fires on a sample-count trigger (RetrainEvery new
//     labels) or a wall-clock cadence (RetrainInterval), refits the
//     class determinators on the full corpus, trains a warm-started
//     candidate, and publishes only when the candidate's held-out
//     accuracy is within GateSlack of the serving model's — a
//     regressing candidate is rejected and logged, never served.
package loop

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"flowgen/internal/core"
	"flowgen/internal/fault"
	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/obs"
	"flowgen/internal/opt"
	"flowgen/internal/serve"
	"flowgen/internal/synth"
	"flowgen/internal/train"
)

// Config tunes the loop. Zero values select the documented defaults.
type Config struct {
	// ModelName is the registry entry the loop retrains (defaults to
	// the registry default model).
	ModelName string
	// Metrics and Percentiles define the labeling model refit on every
	// retrain (defaults: MetricArea, label.DefaultPercentiles). The
	// resulting class count must match the model architecture's.
	Metrics     []synth.Metric
	Percentiles []float64

	// QueueCap bounds the candidate queue; observations beyond it are
	// dropped (and counted) rather than blocking serving. Default 4096.
	QueueCap int
	// LabelWorkers bounds the synthesis engine's parallelism while the
	// loop labels, so labeling never starves serving. Default
	// max(1, NumCPU/2).
	LabelWorkers int
	// LabelBatch caps how many flows one labeler round evaluates
	// (larger batches amortize the engine's prefix memoization).
	// Default 32.
	LabelBatch int
	// ExploreBatch is how many server-sampled exploration flows top up
	// a labeler round when the queue runs dry, so the corpus keeps
	// growing without traffic. Default 8.
	ExploreBatch int
	// GatherWait bounds how long a labeler round waits for queued
	// flows before falling back to exploration. Default 100ms.
	GatherWait time.Duration
	// LabelTimeout bounds one labeling batch's synthesis evaluation;
	// a batch that exceeds it is abandoned (counted, logged) and the
	// labeler moves on instead of wedging the loop behind one
	// pathological flow. Default 2m; negative disables.
	LabelTimeout time.Duration

	// RetrainEvery triggers a retrain once this many new labels have
	// accumulated since the last one. Default 200.
	RetrainEvery int
	// RetrainInterval additionally triggers retrains on a wall-clock
	// cadence when new labels exist (0 disables the cadence trigger).
	RetrainInterval time.Duration
	// MinLabeled gates the first retrain until the corpus can support
	// a percentile fit. Defaults to RetrainEvery.
	MinLabeled int
	// StepsPerRound is how many mini-batch steps each retrain runs.
	// Default 400.
	StepsPerRound int
	// Optimizer and LearnRate configure the retraining optimizer.
	// Defaults: "RMSProp", 1e-3.
	Optimizer string
	LearnRate float64
	// RetrainBudget is the wall-clock watchdog for one retraining
	// round: refit, training, gate and publish must finish inside it
	// or the round is aborted (counted, logged) and the serving model
	// keeps serving. Default 10m; negative disables.
	RetrainBudget time.Duration

	// HoldoutFrac is the fraction of the corpus held out (by stride)
	// for the accuracy gate. Default 0.2.
	HoldoutFrac float64
	// GateSlack is how much held-out accuracy a candidate may lose
	// versus the serving model and still publish. Default 0.005;
	// negative demands the candidate beat the serving model by that
	// margin.
	GateSlack float64

	// Seed drives exploration sampling and training shuffles.
	Seed int64
	// JournalPath persists the labeled corpus ("" = in-memory only).
	JournalPath string
	// JournalRetry tunes journal write retries and degraded-mode
	// recovery (see RetryConfig); zero values pick the defaults.
	JournalRetry RetryConfig
	// CutsPath is where each retrain appends the labeling model's
	// fitted percentile cuts as one JSON line, so class boundaries are
	// auditable across rounds. Defaults to JournalPath+".cuts" when a
	// journal is configured; "-" disables.
	CutsPath string
	// SavePath, when set, is where published models are written with
	// serve.SaveModel (defaults to the serving model's own Path, so
	// watcher-driven reloads keep working; a pathless bootstrap model
	// publishes in-memory only).
	SavePath string

	// Obs receives the loop's metrics: queue depth and corpus-size
	// gauges, the labeling/retraining counters (labels-per-second is
	// derived by the collector from flowgen_loop_labeled_total), retrain
	// duration quantiles and the last loss/accuracy gauges. Nil keeps
	// the metrics functional but unregistered.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if len(c.Metrics) == 0 {
		c.Metrics = []synth.Metric{synth.MetricArea}
	}
	if len(c.Percentiles) == 0 {
		c.Percentiles = label.DefaultPercentiles
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4096
	}
	if c.LabelWorkers <= 0 {
		c.LabelWorkers = max(1, runtime.NumCPU()/2)
	}
	if c.LabelBatch <= 0 {
		c.LabelBatch = 32
	}
	if c.ExploreBatch < 0 {
		c.ExploreBatch = 0
	} else if c.ExploreBatch == 0 {
		c.ExploreBatch = 8
	}
	if c.GatherWait <= 0 {
		c.GatherWait = 100 * time.Millisecond
	}
	if c.LabelTimeout == 0 {
		c.LabelTimeout = 2 * time.Minute
	}
	if c.RetrainBudget == 0 {
		c.RetrainBudget = 10 * time.Minute
	}
	if c.RetrainEvery <= 0 {
		c.RetrainEvery = 200
	}
	if c.MinLabeled <= 0 {
		c.MinLabeled = c.RetrainEvery
	}
	if c.StepsPerRound <= 0 {
		c.StepsPerRound = 400
	}
	if c.Optimizer == "" {
		c.Optimizer = "RMSProp"
	}
	if c.LearnRate <= 0 {
		c.LearnRate = 1e-3
	}
	if c.HoldoutFrac <= 0 || c.HoldoutFrac >= 1 {
		c.HoldoutFrac = 0.2
	}
	if c.GateSlack == 0 {
		c.GateSlack = 0.005
	}
	if c.CutsPath == "" && c.JournalPath != "" {
		c.CutsPath = c.JournalPath + ".cuts"
	}
	if c.CutsPath == "-" {
		c.CutsPath = ""
	}
	return c
}

// Status is one consistent snapshot of the loop's counters, served by
// /v1/loop/status and embedded in /v1/stats.
type Status struct {
	Running     bool `json:"running"`
	Queued      int  `json:"queued"`
	DatasetSize int  `json:"dataset_size"`

	// Accepting is false once a drain has quiesced intake; Degraded
	// reports journal health (memory-only labeling after exhausted
	// write retries — the loop keeps running, /readyz stays up).
	Accepting bool `json:"accepting"`
	Degraded  bool `json:"degraded"`
	Persisted int  `json:"persisted"`

	Observed    int64 `json:"observed"`
	Dropped     int64 `json:"dropped"`
	Explored    int64 `json:"explored"`
	Labeled     int64 `json:"labeled"`
	LabelErrors int64 `json:"label_errors"`
	Submitted   int64 `json:"submitted"`
	Duplicates  int64 `json:"duplicates"`

	Retrains  int64 `json:"retrains"`
	Published int64 `json:"published"`
	Rejected  int64 `json:"rejected"`

	JournalErrors   int64 `json:"journal_errors"`
	JournalRetries  int64 `json:"journal_retries"`
	Recoveries      int64 `json:"recoveries"`
	LabelTimeouts   int64 `json:"label_timeouts"`
	RetrainTimeouts int64 `json:"retrain_timeouts"`
	LabelerPanics   int64 `json:"labeler_panics"`
	RetrainPanics   int64 `json:"retrain_panics"`
	Drains          int64 `json:"drains"`

	LastLoss           float64   `json:"last_loss"`
	LastCandidateAcc   float64   `json:"last_candidate_acc"`
	LastServingAcc     float64   `json:"last_serving_acc"`
	LastPublishVersion int       `json:"last_publish_version,omitempty"`
	LastPublishTime    time.Time `json:"last_publish_time,omitzero"`
	LastError          string    `json:"last_error,omitempty"`
}

// Loop is the continuous flow-development loop. Construct with New,
// drive with Run, feed through Observe/SubmitLabel (the serve
// layer's LoopController hooks).
type Loop struct {
	cfg   Config
	reg   *serve.Registry
	eng   *synth.Engine
	store *Store
	space flow.Space

	queue  chan flow.Flow
	kick   chan struct{}
	mu     sync.Mutex // guards queued + last* fields
	queued map[string]struct{}

	running  atomic.Bool
	draining atomic.Bool  // intake quiesced by Drain
	newSince atomic.Int64 // labels added since the last retrain attempt

	observed, dropped, explored    atomic.Int64
	labeled, labelErrors           atomic.Int64
	submitted, duplicates          atomic.Int64
	retrains, published, rejected  atomic.Int64
	labelTimeouts, retrainTimeouts atomic.Int64
	labelerPanics, retrainPanics   atomic.Int64
	drains                         atomic.Int64
	lastLoss, lastCand, lastServ   float64
	lastVersion                    int
	lastPublish                    time.Time
	lastErr                        string

	// Observability series (non-nil even without a Config.Obs — a nil
	// *obs.Registry hands out functional unregistered metrics).
	obsRetrainDur *obs.Histogram
	obsLastLoss   *obs.Gauge
	obsCandAcc    *obs.Gauge
	obsServAcc    *obs.Gauge
}

// New builds a loop retraining the named registry model, labeling
// through eng (whose Workers are clamped to cfg.LabelWorkers). The
// engine must evaluate the same flow space the model serves, and the
// labeling model's class count must match the architecture's logit
// width — both are validated here rather than at the first retrain.
func New(reg *serve.Registry, eng *synth.Engine, cfg Config) (*Loop, error) {
	cfg = cfg.withDefaults()
	m, err := reg.Get(cfg.ModelName)
	if err != nil {
		return nil, fmt.Errorf("loop: resolving model: %w", err)
	}
	cfg.ModelName = m.Name
	if cfg.SavePath == "" {
		cfg.SavePath = m.Path
	}
	if want := len(cfg.Percentiles) + 1; m.Arch.NumClasses != want {
		return nil, fmt.Errorf("loop: model %q classifies %d classes but %d percentiles need %d",
			m.Name, m.Arch.NumClasses, len(cfg.Percentiles), want)
	}
	if eng.Space.Length() != m.Space.Length() || eng.Space.N() != m.Space.N() {
		return nil, fmt.Errorf("loop: engine flow space %dx%d does not match model %q space %dx%d",
			eng.Space.Length(), eng.Space.N(), m.Name, m.Space.Length(), m.Space.N())
	}
	eng.Workers = cfg.LabelWorkers
	store, err := OpenStoreWith(cfg.JournalPath, cfg.JournalRetry)
	if err != nil {
		return nil, err
	}
	l := &Loop{
		cfg:    cfg,
		reg:    reg,
		eng:    eng,
		store:  store,
		space:  m.Space,
		queue:  make(chan flow.Flow, cfg.QueueCap),
		kick:   make(chan struct{}, 1),
		queued: map[string]struct{}{},
	}
	// A replayed journal may already hold enough samples to retrain.
	l.newSince.Store(int64(store.Len()))
	l.registerMetrics(cfg.Obs)
	return l, nil
}

// registerMetrics exports the loop's state on o. The counters are
// callback-backed over the loop's existing atomics so there is exactly
// one source of truth for /v1/loop/status and /metrics.
func (l *Loop) registerMetrics(o *obs.Registry) {
	o.GaugeFunc("flowgen_loop_queue_depth",
		"Labeling candidates queued and awaiting evaluation.",
		func() float64 { return float64(len(l.queue)) })
	o.GaugeFunc("flowgen_loop_dataset_size",
		"Labeled samples in the training corpus.",
		func() float64 { return float64(l.store.Len()) })
	for _, c := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"flowgen_loop_observed_total", "Flows observed from the serving endpoints.", &l.observed},
		{"flowgen_loop_dropped_total", "Observed flows dropped because the queue was full.", &l.dropped},
		{"flowgen_loop_explored_total", "Exploration flows sampled to top up labeler rounds.", &l.explored},
		{"flowgen_loop_labeled_total", "Flows labeled through the synthesis engine (rate() of this is labels per second).", &l.labeled},
		{"flowgen_loop_label_errors_total", "Labeling evaluations that failed.", &l.labelErrors},
		{"flowgen_loop_submitted_total", "Externally measured labels accepted via /v1/label.", &l.submitted},
		{"flowgen_loop_retrains_total", "Retraining rounds started.", &l.retrains},
		{"flowgen_loop_gate_accept_total", "Retrained candidates that cleared the accuracy gate and published.", &l.published},
		{"flowgen_loop_gate_reject_total", "Retrained candidates rejected by the accuracy gate.", &l.rejected},
		{"flowgen_loop_label_timeouts_total", "Labeling batches abandoned at the LabelTimeout deadline.", &l.labelTimeouts},
		{"flowgen_loop_retrain_timeouts_total", "Retraining rounds aborted by the RetrainBudget watchdog.", &l.retrainTimeouts},
		{"flowgen_loop_labeler_panics_total", "Labeler panics recovered (batch skipped, loop alive).", &l.labelerPanics},
		{"flowgen_loop_retrain_panics_total", "Retrainer panics recovered (round skipped, loop alive).", &l.retrainPanics},
		{"flowgen_loop_drains_total", "Drain requests served.", &l.drains},
	} {
		o.CounterFunc(c.name, c.help, c.v.Load)
	}
	o.CounterFunc("flowgen_loop_journal_errors_total",
		"Failed journal write/sync attempts, including retried ones.", l.store.JournalErrors)
	o.CounterFunc("flowgen_loop_journal_retries_total",
		"Backoff retries taken on journal appends.", l.store.JournalRetries)
	o.CounterFunc("flowgen_loop_journal_recoveries_total",
		"Successful recoveries from degraded memory-only labeling.", l.store.Recoveries)
	o.GaugeFunc("flowgen_loop_degraded",
		"1 while the journal is degraded to memory-only labeling, else 0.",
		func() float64 {
			if l.store.Degraded() {
				return 1
			}
			return 0
		})
	l.obsRetrainDur = o.DurationHistogram("flowgen_loop_retrain_duration_seconds",
		"Wall time of one retraining round: refit, train, gate, publish.")
	l.obsLastLoss = o.Gauge("flowgen_loop_last_loss",
		"Mean minibatch loss over the most recent retraining round.")
	l.obsCandAcc = o.Gauge("flowgen_loop_candidate_accuracy",
		"Held-out accuracy of the most recent retrained candidate.")
	l.obsServAcc = o.Gauge("flowgen_loop_serving_accuracy",
		"Held-out accuracy of the serving model at the most recent gate.")
}

// Close releases the journal. Call after Run has returned.
func (l *Loop) Close() error { return l.store.Close() }

// Run drives the labeler and retrainer until ctx is cancelled.
func (l *Loop) Run(ctx context.Context) {
	l.running.Store(true)
	defer l.running.Store(false)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		l.labelLoop(ctx)
	}()
	go func() {
		defer wg.Done()
		l.retrainLoop(ctx)
	}()
	wg.Wait()
}

// Observe enqueues served flows as labeling candidates — the serve
// layer calls this from the predict/recommend handlers with the
// request's trace-carrying context. Flows already labeled or already
// queued are skipped; when the queue is full, or a drain has quiesced
// intake, the flows are dropped (and counted), never blocking the
// request path.
func (l *Loop) Observe(ctx context.Context, flows []flow.Flow) {
	if l.draining.Load() {
		l.dropped.Add(int64(len(flows)))
		return
	}
	enqueued := 0
	for _, f := range flows {
		l.observed.Add(1)
		if l.space.Validate(f) != nil || l.store.Has(f) {
			continue
		}
		key := f.Key()
		l.mu.Lock()
		if _, dup := l.queued[key]; dup {
			l.mu.Unlock()
			continue
		}
		select {
		case l.queue <- f:
			l.queued[key] = struct{}{}
			l.mu.Unlock()
			enqueued++
		default:
			l.mu.Unlock()
			l.dropped.Add(1)
		}
	}
	if enqueued > 0 {
		slog.DebugContext(ctx, "loop: queued labeling candidates",
			"observed", len(flows), "queued", enqueued)
	}
}

// SubmitLabel records an externally measured QoR for a flow (the
// /v1/label endpoint): the sample enters the corpus directly, skipping
// the labeler. Returns whether the sample was new, and the corpus size
// after the call. A QoR that fails synth.QoR.Validate (NaN, infinite or
// negative values) is rejected before it can reach the journal or the
// class determinators.
func (l *Loop) SubmitLabel(flowText string, q synth.QoR) (accepted bool, size int, err error) {
	f, err := l.space.Parse(flowText)
	if err != nil {
		return false, l.store.Len(), err
	}
	if err := q.Validate(); err != nil {
		return false, l.store.Len(), err
	}
	added, err := l.store.Add(f, q)
	if err != nil {
		return false, l.store.Len(), err
	}
	if added {
		l.submitted.Add(1)
		l.bumpNew(1)
	} else {
		l.duplicates.Add(1)
	}
	return added, l.store.Len(), nil
}

// Status returns a snapshot of the loop counters.
func (l *Loop) Status() Status {
	l.mu.Lock()
	queued := len(l.queued)
	st := Status{
		LastLoss:           l.lastLoss,
		LastCandidateAcc:   l.lastCand,
		LastServingAcc:     l.lastServ,
		LastPublishVersion: l.lastVersion,
		LastPublishTime:    l.lastPublish,
		LastError:          l.lastErr,
	}
	l.mu.Unlock()
	st.Running = l.running.Load()
	st.Queued = queued
	st.DatasetSize = l.store.Len()
	st.Observed = l.observed.Load()
	st.Dropped = l.dropped.Load()
	st.Explored = l.explored.Load()
	st.Labeled = l.labeled.Load()
	st.LabelErrors = l.labelErrors.Load()
	st.Submitted = l.submitted.Load()
	st.Duplicates = l.duplicates.Load()
	st.Retrains = l.retrains.Load()
	st.Published = l.published.Load()
	st.Rejected = l.rejected.Load()
	st.Accepting = !l.draining.Load()
	st.Degraded = l.store.Degraded()
	st.Persisted = l.store.Persisted()
	st.JournalErrors = l.store.JournalErrors()
	st.JournalRetries = l.store.JournalRetries()
	st.Recoveries = l.store.Recoveries()
	st.LabelTimeouts = l.labelTimeouts.Load()
	st.RetrainTimeouts = l.retrainTimeouts.Load()
	st.LabelerPanics = l.labelerPanics.Load()
	st.RetrainPanics = l.retrainPanics.Load()
	st.Drains = l.drains.Load()
	return st
}

// DrainResult is what Drain reports once intake has quiesced and the
// journal is flushed; /v1/loop/drain serializes it verbatim.
type DrainResult struct {
	// Drained is true when the candidate queue fully flushed before the
	// deadline; false means the drain timed out with Queued flows still
	// awaiting labeling (they remain in the corpus pipeline, nothing is
	// discarded — the journal is synced either way).
	Drained       bool `json:"drained"`
	Queued        int  `json:"queued"`
	DatasetSize   int  `json:"dataset_size"`
	Persisted     int  `json:"persisted"`
	JournalSynced bool `json:"journal_synced"`
	Degraded      bool `json:"degraded"`
}

// Drain quiesces the loop for shutdown: intake stops (Observe drops,
// counted), the labeler is allowed to finish in-flight and queued
// candidates until ctx expires, and the journal is fsynced. Drain is
// idempotent; the loop stays drained once called (Run keeps running so
// /v1/loop/status stays live, but no new candidates are accepted).
func (l *Loop) Drain(ctx context.Context) (any, error) {
	l.drains.Add(1)
	l.draining.Store(true)
	// Queued keys persist until their labeling round completes, so an
	// empty queued set means the queue is flushed AND nothing is mid
	// evaluation.
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	drained := false
	for !drained && ctx.Err() == nil {
		l.mu.Lock()
		drained = len(l.queued) == 0
		l.mu.Unlock()
		if drained {
			break
		}
		select {
		case <-ctx.Done():
		case <-tick.C:
		}
	}
	syncErr := l.store.Sync()
	if syncErr != nil {
		l.setErr(fmt.Sprintf("drain: %v", syncErr))
	}
	l.mu.Lock()
	queued := len(l.queued)
	l.mu.Unlock()
	res := DrainResult{
		Drained:       drained,
		Queued:        queued,
		DatasetSize:   l.store.Len(),
		Persisted:     l.store.Persisted(),
		JournalSynced: syncErr == nil,
		Degraded:      l.store.Degraded(),
	}
	slog.Info("loop: drained", "drained", res.Drained, "queued", res.Queued,
		"dataset", res.DatasetSize, "persisted", res.Persisted,
		"journal_synced", res.JournalSynced, "degraded", res.Degraded)
	return res, nil
}

// LoopStatus satisfies serve.LoopController.
func (l *Loop) LoopStatus() any { return l.Status() }

// bumpNew counts freshly labeled samples and kicks the retrainer once
// enough have accumulated.
func (l *Loop) bumpNew(n int64) {
	if l.newSince.Add(n) >= int64(l.cfg.RetrainEvery) && l.store.Len() >= l.cfg.MinLabeled {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
}

// ------------------------------------------------------------- labeler

func (l *Loop) labelLoop(ctx context.Context) {
	rng := rand.New(rand.NewSource(l.cfg.Seed))
	timer := time.NewTimer(l.cfg.GatherWait)
	defer timer.Stop()
	for ctx.Err() == nil {
		l.labelRound(ctx, rng, timer)
	}
}

// labelRound gathers, evaluates and stores one labeling batch. A panic
// anywhere in the round — the engine, the labeling fault site, the
// store — is recovered here: the batch is counted as failed and the
// labeler moves on, so a poisoned flow can never kill the process.
func (l *Loop) labelRound(ctx context.Context, rng *rand.Rand, timer *time.Timer) {
	var batch []flow.Flow
	defer func() {
		// Whether the round finished, errored or panicked, the batch's
		// keys leave the queued set — candidates are labeled at most
		// once, and Drain's "queue flushed" condition sees the truth.
		l.release(batch)
		if r := recover(); r != nil {
			l.labelerPanics.Add(1)
			l.labelErrors.Add(int64(len(batch)))
			l.setErr(fmt.Sprintf("labeler panic: %v", r))
			slog.Error("loop: labeler panic recovered, batch skipped",
				"panic", r, "batch", len(batch), "stack", string(debug.Stack()))
		}
	}()
	batch = l.gather(ctx, timer)
	if ctx.Err() != nil {
		return
	}
	if !l.draining.Load() {
		batch = l.explore(rng, batch)
	}
	if len(batch) == 0 {
		return
	}
	qors, err := l.evaluate(ctx, batch)
	if err != nil {
		// Queued flows are pre-validated, so a batch error is
		// engine-level (or injected); count it and keep the loop alive.
		l.labelErrors.Add(int64(len(batch)))
		l.setErr(fmt.Sprintf("labeling: %v", err))
		return
	}
	var added int64
	for i, f := range batch {
		ok, err := l.store.Add(f, qors[i])
		if err != nil {
			l.labelErrors.Add(1)
			l.setErr(err.Error())
			continue
		}
		if ok {
			added++
		} else {
			l.duplicates.Add(1)
		}
	}
	l.labeled.Add(added)
	l.bumpNew(added)
}

// evaluate labels one batch through the synthesis engine, bounded by
// LabelTimeout: a batch that blows the deadline is abandoned (the
// stray evaluation finishes on its own goroutine and is discarded) so
// one pathological flow cannot wedge the labeler.
func (l *Loop) evaluate(ctx context.Context, batch []flow.Flow) ([]synth.QoR, error) {
	if err := fault.Hit("loop.labeler"); err != nil {
		return nil, err
	}
	if l.cfg.LabelTimeout <= 0 {
		return l.eng.EvaluateAll(batch, nil)
	}
	type evalResult struct {
		qors []synth.QoR
		err  error
	}
	done := make(chan evalResult, 1) // buffered: an abandoned send never leaks
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- evalResult{err: fmt.Errorf("labeling panic: %v", r)}
			}
		}()
		qors, err := l.eng.EvaluateAll(batch, nil)
		done <- evalResult{qors, err}
	}()
	timer := time.NewTimer(l.cfg.LabelTimeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.qors, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-timer.C:
		l.labelTimeouts.Add(1)
		return nil, fmt.Errorf("labeling batch of %d exceeded %v, abandoned",
			len(batch), l.cfg.LabelTimeout)
	}
}

// gather blocks up to GatherWait for a first queued flow, then drains
// without blocking up to LabelBatch. Gathered flows stay in the queued
// set until the round releases them, so Drain can tell "queue empty"
// from "labeling still in flight".
func (l *Loop) gather(ctx context.Context, timer *time.Timer) []flow.Flow {
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(l.cfg.GatherWait)
	var batch []flow.Flow
	select {
	case <-ctx.Done():
		return nil
	case <-timer.C:
		return nil
	case f := <-l.queue:
		batch = append(batch, f)
	}
	for len(batch) < l.cfg.LabelBatch {
		select {
		case f := <-l.queue:
			batch = append(batch, f)
		default:
			return batch
		}
	}
	return batch
}

// release removes a finished round's flows from the queued set
// (explored flows were never in it; deleting is a no-op).
func (l *Loop) release(batch []flow.Flow) {
	if len(batch) == 0 {
		return
	}
	l.mu.Lock()
	for _, f := range batch {
		delete(l.queued, f.Key())
	}
	l.mu.Unlock()
}

// explore tops the batch up with fresh random flows so the corpus keeps
// growing when traffic is idle. Sampling attempts are bounded so a
// nearly exhausted (toy) flow space cannot spin the labeler.
func (l *Loop) explore(rng *rand.Rand, batch []flow.Flow) []flow.Flow {
	want := len(batch) + l.cfg.ExploreBatch
	if want > l.cfg.LabelBatch && len(batch) > 0 {
		want = l.cfg.LabelBatch
	}
	inBatch := make(map[string]struct{}, len(batch))
	for _, f := range batch {
		inBatch[f.Key()] = struct{}{}
	}
	for tries := 4 * l.cfg.ExploreBatch; tries > 0 && len(batch) < want; tries-- {
		f := l.space.Random(rng)
		key := f.Key()
		if _, dup := inBatch[key]; dup || l.store.Has(f) {
			continue
		}
		l.mu.Lock()
		_, dup := l.queued[key]
		l.mu.Unlock()
		if dup {
			continue
		}
		inBatch[key] = struct{}{}
		batch = append(batch, f)
		l.explored.Add(1)
	}
	return batch
}

// ----------------------------------------------------------- retrainer

func (l *Loop) retrainLoop(ctx context.Context) {
	var cadence <-chan time.Time
	if l.cfg.RetrainInterval > 0 {
		t := time.NewTicker(l.cfg.RetrainInterval)
		defer t.Stop()
		cadence = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-l.kick:
		case <-cadence:
			if l.newSince.Load() == 0 || l.store.Len() < l.cfg.MinLabeled {
				continue
			}
		}
		l.newSince.Store(0)
		l.retrainRound(ctx)
	}
}

// retrainRound runs one retrain under the RetrainBudget watchdog with
// panic isolation: a round that panics or blows its budget is counted
// and logged, the serving model keeps serving, and the retrainer stays
// alive for the next trigger.
func (l *Loop) retrainRound(ctx context.Context) {
	rctx := ctx
	if l.cfg.RetrainBudget > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, l.cfg.RetrainBudget)
		defer cancel()
	}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			l.retrainPanics.Add(1)
			l.setErr(fmt.Sprintf("retrain panic: %v", r))
			slog.Error("loop: retrainer panic recovered, round skipped",
				"panic", r, "stack", string(debug.Stack()))
		}
	}()
	err := l.retrain(rctx)
	if err == nil {
		return
	}
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		l.retrainTimeouts.Add(1)
		err = fmt.Errorf("retrain aborted by %v budget after %v",
			l.cfg.RetrainBudget, time.Since(start).Round(time.Millisecond))
		slog.Warn("loop: retraining round aborted by budget",
			"budget", l.cfg.RetrainBudget, "elapsed", time.Since(start))
	}
	l.setErr(err.Error())
}

// retrain runs one labeling-model refit + warm-start training round and
// publishes the candidate if it clears the accuracy gate.
func (l *Loop) retrain(ctx context.Context) error {
	if err := fault.Hit("loop.retrain"); err != nil {
		return fmt.Errorf("retrain: %w", err)
	}
	defer l.obsRetrainDur.ObserveSince(time.Now())
	round := l.retrains.Add(1)
	cur, err := l.reg.Get(l.cfg.ModelName)
	if err != nil {
		return fmt.Errorf("retrain: %w", err)
	}
	flows, qors := l.store.Snapshot()
	model, err := label.Fit(qors, l.cfg.Metrics, l.cfg.Percentiles)
	if err != nil {
		return fmt.Errorf("retrain: %w", err)
	}
	l.persistCuts(round, model, len(flows))

	// Warm start: a fresh network with the serving model's weights, so
	// each round refines rather than relearns (the serving network is
	// shared with in-flight predictions and must never be trained in
	// place).
	cand := cur.Arch.Build(l.cfg.Seed + round)
	var w bytes.Buffer
	if err := cur.Net.SaveWeights(&w); err != nil {
		return fmt.Errorf("retrain: snapshotting weights: %w", err)
	}
	if err := cand.LoadWeights(&w); err != nil {
		return fmt.Errorf("retrain: warm start: %w", err)
	}
	o, err := opt.ByName(l.cfg.Optimizer, l.cfg.LearnRate)
	if err != nil {
		return fmt.Errorf("retrain: %w", err)
	}
	// The round holds every k-th sample out and measures the candidate
	// on it at the serving precision; the budget watchdog and shutdown
	// are honored between its step chunks.
	workers := l.cfg.LabelWorkers
	rr, err := (&core.Round{
		Space:     cur.Space,
		H:         cur.Arch.InH,
		W:         cur.Arch.InW,
		Steps:     l.cfg.StepsPerRound,
		Holdout:   max(2, int(math.Round(1/l.cfg.HoldoutFrac))),
		Workers:   workers,
		Precision: cur.Precision,
	}).Run(ctx, train.NewTrainer(cand, o, l.cfg.Seed+round), flows, qors, model)
	if err != nil {
		return fmt.Errorf("retrain: %w", err)
	}

	// Accuracy gate, both sides through the one Predictor surface: the
	// candidate compiled at the serving precision versus the serving
	// model's live engine, on the same holdout.
	curPred, err := cur.Predictor()
	if err != nil {
		return fmt.Errorf("retrain: serving engine: %w", err)
	}
	loss, candAcc := rr.Loss, rr.Acc
	curAcc := train.AccuracyPredictor(curPred, rr.Eval, workers)

	l.mu.Lock()
	l.lastLoss, l.lastCand, l.lastServ = loss, candAcc, curAcc
	l.mu.Unlock()
	l.obsLastLoss.Set(loss)
	l.obsCandAcc.Set(candAcc)
	l.obsServAcc.Set(curAcc)

	if candAcc+l.cfg.GateSlack < curAcc {
		l.rejected.Add(1)
		l.setErr(fmt.Sprintf("round %d rejected: candidate holdout accuracy %.4f vs serving %.4f",
			round, candAcc, curAcc))
		slog.WarnContext(ctx, "loop: candidate rejected by accuracy gate",
			"model", cur.Name, "round", round,
			"candidate_acc", candAcc, "serving_acc", curAcc, "loss", loss)
		return nil
	}

	next := &serve.Model{
		Name:      cur.Name,
		Space:     cur.Space,
		Arch:      cur.Arch,
		Net:       cand,
		Path:      cur.Path,
		Precision: cur.Precision,
	}
	if l.cfg.SavePath != "" {
		if err := serve.SaveModel(l.cfg.SavePath, next); err != nil {
			// Graceful degradation: an unwritable model file must not
			// block publishing a gated candidate — serve from memory and
			// surface the persistence failure.
			l.setErr(fmt.Sprintf("round %d: persisting model: %v", round, err))
			slog.WarnContext(ctx, "loop: publishing in-memory only, model save failed",
				"model", cur.Name, "round", round, "path", l.cfg.SavePath, "err", err)
		} else {
			next.Path = l.cfg.SavePath
		}
	}
	installed := l.reg.Register(next)
	l.published.Add(1)
	l.mu.Lock()
	l.lastVersion = installed.Version
	l.lastPublish = time.Now()
	l.lastErr = ""
	l.mu.Unlock()
	slog.InfoContext(ctx, "loop: published retrained model",
		"model", installed.Name, "version", installed.Version,
		"candidate_acc", candAcc, "serving_acc", curAcc, "loss", loss,
		"corpus", len(flows))
	return nil
}

// cutsRecord is one JSONL line in the cuts audit log: the labeling
// model fitted at a retraining round, so class boundaries can be
// compared across rounds long after the models themselves rotate.
type cutsRecord struct {
	Round         int64       `json:"round"`
	Time          time.Time   `json:"time"`
	Corpus        int         `json:"corpus"`
	Metrics       []string    `json:"metrics"`
	Percentiles   []float64   `json:"percentiles"`
	Determinators [][]float64 `json:"determinators"`
}

// persistCuts appends the round's fitted percentile cuts to CutsPath.
// Best-effort by design: an unwritable audit log is logged and counted
// as a journal error, never blocks the retrain.
func (l *Loop) persistCuts(round int64, model *label.Model, corpus int) {
	if l.cfg.CutsPath == "" {
		return
	}
	rec := cutsRecord{
		Round:         round,
		Time:          time.Now().UTC(),
		Corpus:        corpus,
		Percentiles:   model.Percentiles,
		Determinators: model.Determinators,
	}
	for _, m := range model.Metrics {
		rec.Metrics = append(rec.Metrics, m.String())
	}
	err := fault.Hit("loop.cuts.append")
	if err == nil {
		err = appendJSONLine(l.cfg.CutsPath, rec)
	}
	if err != nil {
		l.setErr(fmt.Sprintf("round %d: persisting cuts: %v", round, err))
		slog.Warn("loop: cuts audit append failed", "path", l.cfg.CutsPath,
			"round", round, "err", err)
	}
}

func appendJSONLine(path string, v any) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (l *Loop) setErr(msg string) {
	l.mu.Lock()
	l.lastErr = msg
	l.mu.Unlock()
}
