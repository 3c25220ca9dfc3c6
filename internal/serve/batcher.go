package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync/atomic"
	"time"

	"flowgen/internal/fault"
	"flowgen/internal/nn"
	"flowgen/internal/obs"
	"flowgen/internal/train"
)

// Batcher errors. ErrQueueFull is returned without blocking when the
// bounded request queue is at capacity (load shedding); ErrClosed after
// Close.
var (
	ErrQueueFull = errors.New("serve: prediction queue full")
	ErrClosed    = errors.New("serve: batcher closed")
)

// BatcherConfig tunes the micro-batching scheduler. The zero value is
// not usable; start from DefaultBatcherConfig.
type BatcherConfig struct {
	// MaxBatch caps how many requests one flush scores.
	MaxBatch int
	// QueueCap bounds the request queue; submits beyond it fail fast
	// with ErrQueueFull instead of building unbounded backlog.
	QueueCap int
	// Workers shards each flushed batch across prediction workers
	// (≤0 selects GOMAXPROCS).
	Workers int
	// Obs receives the batcher's metrics (queue depth, batch-size
	// distribution, shed count, flush latency), labeled with ObsModel.
	// Nil keeps the metrics functional but unregistered.
	Obs      *obs.Registry
	ObsModel string
}

// DefaultBatcherConfig returns production-shaped defaults: batches up
// to the prediction chunk size and a queue deep enough to absorb
// bursts. There is no coalescing window; see Batcher.
func DefaultBatcherConfig() BatcherConfig {
	return BatcherConfig{MaxBatch: 64, QueueCap: 1024}
}

// Prediction is one scored flow as served: the softmax distribution,
// the argmax class with its confidence, and the model snapshot that
// produced it.
type Prediction struct {
	Probs      []float64
	Class      int
	Confidence float64
	Model      *Model
}

// request is one queued single-flow prediction.
type request struct {
	enc  []float64
	ctx  context.Context
	done chan result // buffered(1): flush never blocks on a dead caller
}

type result struct {
	probs []float64
	model *Model
	err   error
}

// BatcherStats is a point-in-time counter snapshot. Rejected, Batches,
// BatchedFlows and MaxBatch read the batcher's obs series
// (flowgen_batcher_shed_total and flowgen_batcher_batch_size), so two
// batchers sharing one registry and model label report the shared
// series.
type BatcherStats struct {
	Requests     int64 // accepted submissions
	Rejected     int64 // queue-full fast failures
	Cancelled    int64 // requests whose context ended before scoring
	Batches      int64 // batches scored
	BatchedFlows int64 // flows scored in those batches
	MaxBatch     int64 // largest batch observed
	Errors       int64 // scoring errors (cancelled flushes, model faults)
}

// MeanBatch returns the average coalesced batch size.
func (s BatcherStats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchedFlows) / float64(s.Batches)
}

// Batcher coalesces concurrent single-flow prediction requests into
// micro-batches. Submissions enter a bounded queue; a scheduler
// goroutine is work-conserving: it takes the first queued request,
// adds every request already queued behind it (up to MaxBatch) without
// waiting, resolves the current model snapshot once, and executes one
// batched forward pass for all of them. Requests that arrive during a
// forward pass queue up and form the next batch, so batch size grows
// with load rather than with a timer, and a lone request is scored as
// soon as the predictor is free. Per-sample numerics are independent
// of batch composition, so responses are bit-identical to direct
// Model.PredictFlows scoring regardless of how requests coalesce.
type Batcher struct {
	cfg      BatcherConfig
	resolve  func() (*Model, error)
	queue    chan *request
	quit     chan struct{}
	quitCtx  context.Context // cancelled by Close; aborts in-flight forwards
	quitStop context.CancelFunc
	closed   atomic.Bool

	// Observability series (always non-nil: a nil cfg.Obs hands out
	// functional unregistered metrics, so the hot paths need no guards).
	obsBatchSize *obs.Histogram // flows per scored batch
	obsFlushDur  *obs.Histogram // flush wall time, ns
	obsWait      *obs.Histogram // submit-to-response latency, ns
	obsShed      *obs.Counter   // queue-full rejections
	obsPanics    *obs.Counter   // forward-pass panics recovered

	// Counters without an obs series.
	stats struct {
		requests, cancelled, errors atomic.Int64
	}
}

// NewBatcher starts a batcher whose flushes score against the model
// returned by resolve — typically a Registry lookup, so a hot reload
// redirects the very next batch; in-flight batches finish on the
// snapshot they resolved. Close must be called to stop the scheduler.
func NewBatcher(resolve func() (*Model, error), cfg BatcherConfig) *Batcher {
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 1
	}
	b := &Batcher{
		cfg:     cfg,
		resolve: resolve,
		queue:   make(chan *request, cfg.QueueCap),
		quit:    make(chan struct{}),
	}
	b.quitCtx, b.quitStop = context.WithCancel(context.Background())
	lbl := obs.Label{Key: "model", Value: cfg.ObsModel}
	cfg.Obs.GaugeFunc("flowgen_batcher_queue_depth",
		"Prediction requests queued and awaiting a batch.",
		func() float64 { return float64(len(b.queue)) }, lbl)
	b.obsBatchSize = cfg.Obs.Histogram("flowgen_batcher_batch_size",
		"Flows coalesced per flushed micro-batch.", lbl)
	b.obsFlushDur = cfg.Obs.DurationHistogram("flowgen_batcher_flush_duration_seconds",
		"Wall time of one batch flush: resolve, forward pass, distribute.", lbl)
	b.obsWait = cfg.Obs.DurationHistogram("flowgen_batcher_wait_seconds",
		"Submit-to-response latency: queueing behind earlier batches plus the flush (no coalescing wait).", lbl)
	b.obsShed = cfg.Obs.Counter("flowgen_batcher_shed_total",
		"Submissions rejected because the request queue was full.", lbl)
	b.obsPanics = cfg.Obs.Counter("flowgen_batcher_panics_total",
		"Forward-pass panics recovered (batch failed, scheduler alive).", lbl)
	go b.loop()
	return b
}

// Close stops the scheduler. Pending and in-flight requests fail with
// ErrClosed; Close is idempotent.
func (b *Batcher) Close() {
	if b.closed.CompareAndSwap(false, true) {
		close(b.quit)
		b.quitStop()
	}
}

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Requests:     b.stats.requests.Load(),
		Rejected:     b.obsShed.Value(),
		Cancelled:    b.stats.cancelled.Load(),
		Batches:      int64(b.obsBatchSize.Count()),
		BatchedFlows: b.obsBatchSize.Sum(),
		MaxBatch:     b.obsBatchSize.Max(),
		Errors:       b.stats.errors.Load(),
	}
}

// Submit enqueues one encoded flow and blocks until it is scored, the
// context ends, or the batcher closes. enc must be the flow's one-hot
// encoding for the batcher's model and is retained until the response.
// Submits never block on a full queue — they fail with ErrQueueFull.
func (b *Batcher) Submit(ctx context.Context, enc []float64) (Prediction, error) {
	span := obs.StartSpan(ctx, "batch", b.obsWait)
	defer span()
	r := &request{enc: enc, ctx: ctx, done: make(chan result, 1)}
	select {
	case <-b.quit:
		return Prediction{}, ErrClosed
	case <-ctx.Done():
		b.stats.cancelled.Add(1)
		return Prediction{}, ctx.Err()
	default:
	}
	select {
	case b.queue <- r:
		b.stats.requests.Add(1)
	default:
		b.obsShed.Inc()
		return Prediction{}, ErrQueueFull
	}
	select {
	case res := <-r.done:
		if res.err != nil {
			return Prediction{}, res.err
		}
		cls := train.Argmax(res.probs)
		slog.DebugContext(ctx, "batcher: scored flow",
			"model", res.model.Name, "version", res.model.Version, "class", cls)
		return Prediction{Probs: res.probs, Class: cls, Confidence: res.probs[cls], Model: res.model}, nil
	case <-ctx.Done():
		// The request stays queued; the flush skips it (its context is
		// done) and the buffered done channel absorbs any late result.
		b.stats.cancelled.Add(1)
		return Prediction{}, ctx.Err()
	case <-b.quit:
		return Prediction{}, ErrClosed
	}
}

// loop is the scheduler: gather a batch, flush it, repeat.
func (b *Batcher) loop() {
	for {
		var first *request
		select {
		case first = <-b.queue:
		case <-b.quit:
			b.drain()
			return
		}
		b.flush(b.gather(first))
	}
}

// gather returns the first request plus every request already queued
// behind it, up to MaxBatch, without blocking.
func (b *Batcher) gather(first *request) []*request {
	batch := append(make([]*request, 0, b.cfg.MaxBatch), first)
	for len(batch) < b.cfg.MaxBatch {
		select {
		case r := <-b.queue:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// flush scores one gathered batch: resolve the model snapshot, drop
// requests whose context already ended, stream the rest through the
// model's predictor, and distribute the per-flow probability rows. The
// forward runs under a context that cancels when every member request
// has been abandoned, so a batch of dead requests stops burning
// inference workers mid-shard.
func (b *Batcher) flush(batch []*request) {
	defer b.obsFlushDur.ObserveSince(time.Now())
	m, err := b.resolve()
	if err != nil {
		b.stats.errors.Add(1)
		for _, r := range batch {
			r.done <- result{err: err}
		}
		return
	}
	hw := m.EncodeLen()
	live := batch[:0]
	for _, r := range batch {
		switch {
		case r.ctx.Err() != nil:
			// Abandoned while queued; its Submit already returned (and
			// counted the cancellation) — just don't score it.
		case len(r.enc) != hw:
			r.done <- result{err: fmt.Errorf("serve: encoding has %d elements, model %s@v%d expects %d",
				len(r.enc), m.Name, m.Version, hw)}
		default:
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}

	// The live requests' encodings are narrowed (exactly: they are
	// one-hot) straight into each prediction worker's chunk buffer.
	src := func(dst []float32, lo, hi int) {
		for i, r := range live[lo:hi] {
			row := dst[i*hw : (i+1)*hw]
			for j, v := range r.enc {
				row[j] = float32(v)
			}
		}
	}

	// The forward runs under the batcher's shutdown context; when every
	// member request is individually cancellable, it additionally
	// cancels once the last caller is gone. Requests with
	// non-cancellable contexts (ctx.Done() == nil, e.g. Background) can
	// never be abandoned, so the common fast path skips the
	// per-request plumbing entirely.
	flushCtx := b.quitCtx
	cancellable := 0
	for _, r := range live {
		if r.ctx.Done() != nil {
			cancellable++
		}
	}
	if cancellable == len(live) {
		var cancel context.CancelFunc
		flushCtx, cancel = context.WithCancel(b.quitCtx)
		defer cancel()
		remaining := int64(len(live))
		var abandoned atomic.Int64
		for _, r := range live {
			stop := context.AfterFunc(r.ctx, func() {
				if abandoned.Add(1) == remaining {
					cancel() // every caller is gone — stop the forward pass
				}
			})
			defer stop()
		}
	}

	probs, err := b.predict(flushCtx, m, len(live), src)
	if err != nil {
		b.stats.errors.Add(1)
		for _, r := range live {
			r.done <- result{err: err}
		}
		return
	}
	b.obsBatchSize.Observe(int64(len(live)))
	for i, r := range live {
		r.done <- result{probs: probs[i], model: m}
	}
}

// predict streams n samples from src through the model's predictor
// with panic isolation: a panic inside the model (or injected at the
// serve.batcher.flush site) fails this batch's requests with an error
// and leaves the scheduler goroutine alive, so one poisoned batch never
// takes the model's batcher down with it. The sleep kind at the same site models a slow
// predictor (latency injection for the chaos suite).
func (b *Batcher) predict(ctx context.Context, m *Model, n int, src nn.Source) (probs [][]float64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			b.obsPanics.Inc() // the caller counts the batch error itself
			slog.Error("batcher: forward-pass panic recovered, batch failed",
				"model", m.Name, "version", m.Version, "panic", rec,
				"stack", string(debug.Stack()))
			probs, err = nil, fmt.Errorf("serve: prediction panic: %v", rec)
		}
	}()
	if fault.Enabled() {
		if err := fault.Hit("serve.batcher.flush"); err != nil {
			return nil, err
		}
	}
	p, err := m.Predictor()
	if err != nil {
		return nil, err
	}
	return p.PredictStream(ctx, n, b.cfg.Workers, src)
}

// drain fails whatever is still queued at shutdown.
func (b *Batcher) drain() {
	for {
		select {
		case r := <-b.queue:
			r.done <- result{err: ErrClosed}
		default:
			return
		}
	}
}
