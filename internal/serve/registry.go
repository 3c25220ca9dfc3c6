// Package serve is the flow-recommendation serving subsystem: it turns
// the trained classifier from an offline experiment artifact into a
// long-lived, queryable service. Two pieces compose:
//
//   - Registry holds named immutable Model snapshots behind an atomic
//     copy-on-write map, so lookups are lock-free and a hot reload swaps
//     a model with zero downtime — in-flight requests keep the snapshot
//     they resolved, new requests see the new version;
//   - Cache memoizes scored flows per (model, version, flow-key), since
//     production traffic re-asks about popular flows.
//
// Server wires them behind JSON HTTP endpoints with per-endpoint
// latency/throughput counters. Each request resolves one snapshot and
// scores its uncached flows in one Model.PredictFlows call, streamed
// through the model's nn.InferenceNet; cmd/flowserve is the binary.
package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flowgen/internal/core"
	"flowgen/internal/fault"
	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/nn"
	"flowgen/internal/obs"
	"flowgen/internal/synth"
)

// Model is one immutable, servable classifier snapshot: the flow space
// it understands, the architecture, the labeling definition its classes
// stand for, and the trained network. A Model is never mutated after
// registration — hot reload registers a successor with a bumped Version
// — so readers need no locks and a request served by one snapshot is
// internally consistent.
type Model struct {
	Name    string
	Version int // bumped by Registry on every (re)registration
	Space   flow.Space
	Arch    nn.ArchConfig
	// Metrics and Percentiles are the labeling definition (Table 1) the
	// network was trained on: class c of its logits is class c of
	// label.Fit(qors, Metrics, Percentiles), so Arch.NumClasses is
	// len(Percentiles)+1. The loop refits this definition when it
	// retrains the model.
	Metrics     []synth.Metric
	Percentiles []float64
	Net         *nn.Network
	Path        string // source file for reloads ("" = in-memory only)
	LoadedAt    time.Time

	// pred is the lazily compiled serving engine — one packed f32
	// snapshot per registered Model, compiled exactly once and shared
	// by every request: the engine is concurrency-safe, workers own
	// their scratch.
	predOnce sync.Once
	pred     *nn.InferenceNet
	predErr  error
}

// Predictor returns the model's serving engine, compiling it on first
// use (Registry.Register warms it eagerly so the first request after a
// (re)registration never pays the compile).
func (m *Model) Predictor() (*nn.InferenceNet, error) {
	m.predOnce.Do(func() {
		m.pred, m.predErr = nn.NewInferenceNet(m.Net, m.Arch.InH, m.Arch.InW)
	})
	return m.pred, m.predErr
}

// PredictFlows streams the given flows through the model's serving
// engine without materializing a pool-sized tensor: core.FlowSource
// encodes them into chunk-sized worker buffers. It is the one scoring
// path behind every predict and recommendation pool. The engine is
// concurrency-safe (every worker owns its scratch), and each flow's
// probabilities are deterministic and independent of the other flows
// scored with it.
func (m *Model) PredictFlows(ctx context.Context, flows []flow.Flow, workers int) ([][]float64, error) {
	p, err := m.Predictor()
	if err != nil {
		return nil, err
	}
	return p.PredictStream(ctx, len(flows), workers,
		core.FlowSource(m.Space, flows, m.Arch.InH, m.Arch.InW))
}

// CheckLabeling reports whether m's labeling definition can stand for
// its network's classes: one or two metrics, and one percentile cut
// fewer than the architecture has classes.
func (m *Model) CheckLabeling() error {
	if n := len(m.Metrics); n < 1 || n > 2 {
		return fmt.Errorf("serve: model %q labels on %d metrics, want 1 or 2", m.Name, n)
	}
	if want := len(m.Percentiles) + 1; m.Arch.NumClasses != want {
		return fmt.Errorf("serve: model %q classifies %d classes but its %d percentiles define %d",
			m.Name, m.Arch.NumClasses, len(m.Percentiles), want)
	}
	return nil
}

// modelSnapshot is the on-disk form of a Model. The architecture is
// stored field-by-field with the activation by name (nn.ArchConfig is
// rebuilt, then weights stream in through nn persistence), so the file
// format is independent of nn's in-memory layer layout. The labeling
// definition stores its metrics by name too; a file written before the
// model carried it has neither field and reads as area +
// label.DefaultPercentiles, what every such file was trained on.
type modelSnapshot struct {
	Name        string
	Alphabet    []string
	M           int
	InH, InW    int
	KH, KW      int
	Filters     int
	PoolStride  int
	LocalKH     int
	LocalC      int
	DenseUnits  int
	Dropout     float64
	Act         string
	NumClasses  int
	Metrics     []string
	Percentiles []float64
	Weights     []byte // nn.Network.SaveWeights stream
}

// WriteModel serializes a model (architecture, labeling definition and
// weights) to w.
func WriteModel(w io.Writer, m *Model) error {
	var weights bytes.Buffer
	if err := m.Net.SaveWeights(&weights); err != nil {
		return fmt.Errorf("serve: serializing %q weights: %w", m.Name, err)
	}
	a := m.Arch
	s := modelSnapshot{
		Name: m.Name, Alphabet: m.Space.Alphabet, M: m.Space.M,
		InH: a.InH, InW: a.InW, KH: a.KH, KW: a.KW, Filters: a.Filters,
		PoolStride: a.PoolStride, LocalKH: a.LocalKH, LocalC: a.LocalC,
		DenseUnits: a.DenseUnits, Dropout: a.Dropout, Act: a.Act.String(),
		NumClasses: a.NumClasses, Percentiles: m.Percentiles, Weights: weights.Bytes(),
	}
	for _, metric := range m.Metrics {
		s.Metrics = append(s.Metrics, metric.String())
	}
	return gob.NewEncoder(w).Encode(&s)
}

// SaveModel writes the model to path atomically (write temp + rename),
// so a server hot-reloading the file never observes a torn write.
func SaveModel(path string, m *Model) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".flowmodel-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteModel(tmp, m); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadModel deserializes a model from r. The network is rebuilt from
// the stored architecture and the weights loaded into it. A model whose
// labeling definition does not define its network's classes is refused.
func ReadModel(r io.Reader) (*Model, error) {
	var s modelSnapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("serve: decoding model: %w", err)
	}
	act, err := nn.ActivationByName(s.Act)
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", s.Name, err)
	}
	if len(s.Alphabet) == 0 || s.M < 1 {
		return nil, fmt.Errorf("serve: model %q has an empty flow space", s.Name)
	}
	arch := nn.ArchConfig{
		InH: s.InH, InW: s.InW, KH: s.KH, KW: s.KW, Filters: s.Filters,
		PoolStride: s.PoolStride, LocalKH: s.LocalKH, LocalC: s.LocalC,
		DenseUnits: s.DenseUnits, Dropout: s.Dropout, Act: act,
		NumClasses: s.NumClasses,
	}
	// Build panics on an architecture Validate refuses, and the watcher
	// reloads files outside any request's recover.
	if err := arch.Validate(); err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", s.Name, err)
	}
	// A flow's one-hot encoding, L×n values with L = n·M, must fill the
	// network's input exactly: scoring encodes inside the engine's worker
	// goroutines, where a mismatch would panic past every handler's
	// recover. Validate bounds the input, and the division keeps n²·M
	// from overflowing on an M read from the file.
	n, in := len(s.Alphabet), s.InH*s.InW
	if s.M > in/(n*n) || n*n*s.M != in {
		return nil, fmt.Errorf("serve: model %q: %dx%d input does not hold the one-hot encoding of %d letters at m=%d",
			s.Name, s.InH, s.InW, n, s.M)
	}
	m := &Model{
		Name:        s.Name,
		Space:       flow.NewSpace(s.Alphabet, s.M),
		Arch:        arch,
		Metrics:     []synth.Metric{synth.MetricArea},
		Percentiles: label.DefaultPercentiles,
		LoadedAt:    time.Now(),
	}
	if len(s.Metrics) > 0 {
		m.Metrics = make([]synth.Metric, len(s.Metrics))
		for i, name := range s.Metrics {
			if m.Metrics[i], err = synth.ParseMetric(name); err != nil {
				return nil, fmt.Errorf("serve: model %q: %w", s.Name, err)
			}
		}
	}
	if len(s.Percentiles) > 0 {
		m.Percentiles = s.Percentiles
	}
	if err := m.CheckLabeling(); err != nil {
		return nil, err
	}
	m.Net = arch.Build(0) // weights are fully overwritten below
	if err := m.Net.LoadWeights(bytes.NewReader(s.Weights)); err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", s.Name, err)
	}
	return m, nil
}

// LoadModelFile reads a model file written by SaveModel and records its
// path so the registry can hot-reload it. The serve.registry.load fault
// site stands in for any load failure (missing/corrupt file, injected)
// — Reload callers must keep serving the previous version.
func LoadModelFile(path string) (*Model, error) {
	if err := fault.Hit("serve.registry.load"); err != nil {
		return nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := ReadModel(f)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	m.Path = path
	return m, nil
}

// Registry holds the named servable models. Reads resolve through one
// atomic pointer to an immutable name→Model map; mutations (register,
// reload) copy the map under a mutex and swap the pointer, so a reload
// is a zero-downtime pointer swap and readers never block.
type Registry struct {
	mu          sync.Mutex // serializes mutations only
	snap        atomic.Pointer[registrySnap]
	reloads     atomic.Int64
	reloadFails atomic.Int64
	obs         atomic.Pointer[obs.Registry]
}

type registrySnap struct {
	byName      map[string]*Model
	defaultName string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.snap.Store(&registrySnap{byName: map[string]*Model{}})
	return r
}

// Register installs (or replaces) a model under m.Name and returns the
// installed snapshot. The version is assigned by the registry: one past
// the version currently registered under the same name. The first model
// registered becomes the default. The given Model is stored as-is and
// must not be mutated afterwards.
func (r *Registry) Register(m *Model) *Model {
	if m.Name == "" {
		panic("serve: registering unnamed model")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load()
	next := &registrySnap{byName: make(map[string]*Model, len(old.byName)+1), defaultName: old.defaultName}
	for k, v := range old.byName {
		next.byName[k] = v
	}
	m.Version = 1
	if prev, ok := old.byName[m.Name]; ok {
		m.Version = prev.Version + 1
	}
	if m.LoadedAt.IsZero() {
		m.LoadedAt = time.Now()
	}
	// Warm the serving engine so the first request after a
	// (re)registration does not pay the compile; a compile error is
	// remembered and surfaced by the first prediction.
	m.Predictor()
	next.byName[m.Name] = m
	if next.defaultName == "" {
		next.defaultName = m.Name
	}
	r.snap.Store(next)
	if o := r.obs.Load(); o != nil {
		o.Counter("flowgen_model_registrations_total",
			"Model (re)registrations, including hot reloads.",
			obs.Label{Key: "model", Value: m.Name}).Inc()
		o.Gauge("flowgen_model_version",
			"Active version of each registered model.",
			obs.Label{Key: "model", Value: m.Name}).Set(float64(m.Version))
	}
	return m
}

// SetObs attaches an observability registry: version gauges and a
// registration counter per model, plus the cumulative hot-reload count.
// Models registered before the call are backfilled; a nil registry is a
// no-op.
func (r *Registry) SetObs(o *obs.Registry) {
	if o == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs.Store(o)
	o.CounterFunc("flowgen_model_reloads_total",
		"Successful hot reloads across all models.", r.Reloads)
	o.CounterFunc("flowgen_model_reload_failures_total",
		"Hot reloads that failed; the previous version kept serving.", r.ReloadFails)
	for _, m := range r.snap.Load().byName {
		o.Gauge("flowgen_model_version",
			"Active version of each registered model.",
			obs.Label{Key: "model", Value: m.Name}).Set(float64(m.Version))
		// Materialize the counter series at 0 so each model's family is
		// scrapeable before its first post-attach registration.
		o.Counter("flowgen_model_registrations_total",
			"Model (re)registrations, including hot reloads.",
			obs.Label{Key: "model", Value: m.Name})
	}
}

// SetDefault makes name the model served when requests omit one.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load()
	if _, ok := old.byName[name]; !ok {
		return fmt.Errorf("serve: unknown model %q", name)
	}
	next := &registrySnap{byName: old.byName, defaultName: name}
	r.snap.Store(next)
	return nil
}

// Get resolves a model snapshot lock-free. An empty name selects the
// default model.
func (r *Registry) Get(name string) (*Model, error) {
	s := r.snap.Load()
	if name == "" {
		name = s.defaultName
		if name == "" {
			return nil, fmt.Errorf("serve: no models registered")
		}
	}
	m, ok := s.byName[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown model %q", name)
	}
	return m, nil
}

// maxFlowText returns the length of the longest flow text any
// registered model's space renders (0 with no models).
func (r *Registry) maxFlowText() int {
	n := 0
	for _, m := range r.snap.Load().byName {
		n = max(n, m.Space.TextLen())
	}
	return n
}

// DefaultName returns the current default model name ("" when empty).
func (r *Registry) DefaultName() string { return r.snap.Load().defaultName }

// List returns the registered models sorted by name.
func (r *Registry) List() []*Model {
	s := r.snap.Load()
	out := make([]*Model, 0, len(s.byName))
	for _, m := range s.byName {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Reload re-reads the named model from its source file and atomically
// swaps it in with a bumped version. In-flight requests finish on the
// old snapshot; requests resolving after the swap see the new one.
// Models without a source path cannot be reloaded.
func (r *Registry) Reload(name string) (*Model, error) {
	cur, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	if cur.Path == "" {
		return nil, fmt.Errorf("serve: model %q is in-memory only (no source file)", cur.Name)
	}
	fresh, err := LoadModelFile(cur.Path)
	if err != nil {
		// Graceful degradation: the previous snapshot stays registered
		// and keeps serving; the failure is counted and surfaced to the
		// caller, never swapped in.
		r.reloadFails.Add(1)
		return nil, err
	}
	fresh.Name = cur.Name // the registry name wins over the stored one
	r.reloads.Add(1)
	return r.Register(fresh), nil
}

// Reloads returns how many successful reloads the registry has served.
func (r *Registry) Reloads() int64 { return r.reloads.Load() }

// ReloadFails returns how many reloads failed (previous version kept).
func (r *Registry) ReloadFails() int64 { return r.reloadFails.Load() }
