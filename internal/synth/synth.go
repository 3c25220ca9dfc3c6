// Package synth is the QoR evaluation engine (the "Synthesis Tool" box of
// Figure 2): it applies a synthesis flow to a design and measures area and
// delay after technology mapping. A worker pool evaluates many flows in
// parallel; evaluation is deterministic, so results double as labels.
package synth

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"flowgen/internal/aig"
	"flowgen/internal/cells"
	"flowgen/internal/flow"
	"flowgen/internal/rewrite"
	"flowgen/internal/techmap"
)

// QoR is the measured quality of result of one flow on one design.
type QoR struct {
	Area   float64 // µm² after mapping
	Delay  float64 // ps, critical path after mapping
	Gates  int     // mapped cell count
	Ands   int     // AIG nodes after the flow
	Levels int     // AIG depth after the flow
}

// Validate reports whether q is a physically meaningful measurement:
// finite, non-negative area and delay and non-negative counts. The
// engine only produces such values; labels measured elsewhere (the
// loop's /v1/label path) are checked before they reach a corpus.
func (q QoR) Validate() error {
	for _, m := range []struct {
		name string
		v    float64
	}{{"area", q.Area}, {"delay", q.Delay}} {
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) || m.v < 0 {
			return fmt.Errorf("synth: %s %v is not a finite non-negative number", m.name, m.v)
		}
	}
	if q.Gates < 0 || q.Ands < 0 || q.Levels < 0 {
		return fmt.Errorf("synth: negative count in QoR (gates %d, ands %d, levels %d)", q.Gates, q.Ands, q.Levels)
	}
	return nil
}

// Metric selects a QoR component.
type Metric int

const (
	// MetricArea selects mapped area.
	MetricArea Metric = iota
	// MetricDelay selects mapped critical-path delay.
	MetricDelay
)

// Get returns the selected metric value.
func (q QoR) Get(m Metric) float64 {
	if m == MetricArea {
		return q.Area
	}
	return q.Delay
}

func (m Metric) String() string {
	if m == MetricArea {
		return "area"
	}
	return "delay"
}

// Engine evaluates flows against a fixed master design. The master graph
// is only read (it must be a freshly built or Cleanup'd graph, which is
// free of replacement indirections), so evaluations can run concurrently.
type Engine struct {
	Space   flow.Space
	MapMode techmap.Mode
	Workers int
	// Memo selects the prefix-memoized batch evaluator (memo.go) for
	// EvaluateAll. It returns bit-identical QoRs to the direct path while
	// sharing work across flows with common prefixes and convergent
	// intermediate graphs; disable it to force one independent synthesis
	// run per flow (e.g. for baseline timing).
	Memo bool

	master  *aig.AIG
	matcher *techmap.Matcher
	memo    *memoTable
	// lib is the factoring library of the memoized path's passes, shared
	// by its workers and kept across EvaluateAll calls. The direct path
	// never reads it: rewrite.Apply factors through a library of its own
	// per flow, so it stays an independent reference.
	lib   *rewrite.Library
	evals atomic.Int64
}

// NewEngine builds an engine for the design with the paper's default
// mapping setup (delay-oriented mapping on the synthetic 14nm library).
// Memoized batch evaluation is enabled by default.
func NewEngine(design *aig.AIG, space flow.Space) *Engine {
	return &Engine{
		Space:   space,
		MapMode: techmap.DelayMode,
		Workers: runtime.NumCPU(),
		Memo:    true,
		master:  design.Cleanup(),
		matcher: techmap.NewMatcher(cells.New14nm()),
		memo:    newMemoTable(),
		lib:     rewrite.NewLibrary(),
	}
}

// Matcher exposes the engine's shared match table.
func (e *Engine) Matcher() *techmap.Matcher { return e.matcher }

// Evaluations returns the number of flow evaluations performed.
func (e *Engine) Evaluations() int64 { return e.evals.Load() }

// Evaluate applies one flow to a fresh copy of the design and returns its
// QoR.
func (e *Engine) Evaluate(f flow.Flow) (QoR, error) {
	if err := e.Space.Validate(f); err != nil {
		return QoR{}, err
	}
	return e.evaluateValidated(f)
}

// evaluateValidated is the direct evaluation path; the flow must already
// be validated against the engine's space.
func (e *Engine) evaluateValidated(f flow.Flow) (QoR, error) {
	g := e.master.Cleanup()
	g, _, err := rewrite.Apply(g, f.Names(e.Space))
	if err != nil {
		return QoR{}, err
	}
	q := techmap.Map(g, e.matcher, e.MapMode)
	e.evals.Add(1)
	return QoR{
		Area:   q.Area,
		Delay:  q.Delay,
		Gates:  q.Gates,
		Ands:   g.NumAnds(),
		Levels: g.RecomputeLevels(),
	}, nil
}

// EvaluateAll evaluates the flows with a worker pool, preserving input
// order in the result. The whole batch is validated up front, so a
// malformed flow fails fast before any synthesis work starts.
//
// progress (if non-nil) is called after each completed evaluation with
// the number done so far. It is invoked concurrently from worker
// goroutines; callers that touch shared state from it must synchronize.
//
// When e.Memo is set (the default from NewEngine) the batch runs on the
// prefix-memoized engine, which returns bit-identical QoRs while
// applying each distinct transformation prefix only once.
func (e *Engine) EvaluateAll(flows []flow.Flow, progress func(done int)) ([]QoR, error) {
	for i, f := range flows {
		if err := e.Space.Validate(f); err != nil {
			return nil, fmt.Errorf("synth: flow %d: %w", i, err)
		}
	}
	if e.Memo {
		return e.evaluateAllMemo(flows, progress)
	}
	out := make([]QoR, len(flows))
	errs := make([]error, len(flows))
	workers := e.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(flows) {
		workers = len(flows)
	}
	var next atomic.Int64
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(flows) {
					return
				}
				out[i], errs[i] = e.evaluateValidated(flows[i])
				d := done.Add(1)
				if progress != nil {
					progress(int(d))
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("synth: flow %d: %w", i, err)
		}
	}
	return out, nil
}
