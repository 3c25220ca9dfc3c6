// Package flowgen reproduces "Developing Synthesis Flows Without Human
// Knowledge" (Yu, Xiao, De Micheli — DAC 2018): a fully autonomous
// framework that develops design-specific logic-synthesis flows by
// training a CNN classifier on QoR-labeled random flows and selecting
// the angel-flows (best) and devil-flows (worst) from a large unlabeled
// pool by prediction confidence.
//
// This root package is the public facade over the implementation
// packages. A minimal run:
//
//	design := flowgen.BuildDesign("alu16")
//	space := flowgen.NewFlowSpace(flowgen.DefaultAlphabet, 4)
//	engine := flowgen.NewEngine(design, space)
//	cfg := flowgen.DefaultConfig(space)
//	fw, _ := flowgen.NewFramework(cfg, engine)
//	res, _ := fw.Run(nil)
//	// res.Angels / res.Devils hold the generated flows.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper.
package flowgen

import (
	"context"
	"io"
	"log/slog"

	"flowgen/internal/aig"
	"flowgen/internal/circuits"
	"flowgen/internal/core"
	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/loop"
	"flowgen/internal/nn"
	"flowgen/internal/obs"
	"flowgen/internal/serve"
	"flowgen/internal/synth"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// AIG is an and-inverter graph, the logic representation flows
	// transform.
	AIG = aig.AIG
	// FlowSpace is an m-repetition flow search space (paper §2.1).
	FlowSpace = flow.Space
	// Flow is one synthesis flow (a transformation sequence).
	Flow = flow.Flow
	// QoR holds measured area/delay after technology mapping.
	QoR = synth.QoR
	// Metric selects the QoR component used for labeling.
	Metric = synth.Metric
	// Engine evaluates flows on a design.
	Engine = synth.Engine
	// Config parameterizes a framework run.
	Config = core.Config
	// Framework is the autonomous flow developer of Figure 2.
	Framework = core.Framework
	// Result holds the generated angel/devil flows and training history.
	Result = core.Result
	// ScoredFlow is a flow with its predicted class and confidence.
	ScoredFlow = core.ScoredFlow
	// LabelModel is the Table 1 percentile classification model.
	LabelModel = label.Model
	// ArchConfig describes the CNN classifier architecture (Figure 3).
	ArchConfig = nn.ArchConfig
	// InferenceNet is the packed float32 forward-only snapshot of a
	// trained network — the one inference engine behind pool
	// prediction, accuracy and serving (DESIGN.md §3.5).
	InferenceNet = nn.InferenceNet
	// PredictSource fills InferenceNet.PredictStream's chunk buffers
	// with float32 encodings (exact for one-hot flows).
	PredictSource = nn.Source
	// Loop is the continuous flow-development loop: online labeling,
	// journaled corpus, gated background retraining (DESIGN.md §4).
	Loop = loop.Loop
	// LoopConfig tunes the loop; zero values select documented defaults.
	LoopConfig = loop.Config
	// LoopStatus is one consistent snapshot of the loop's counters.
	LoopStatus = loop.Status
	// ServeModel is one immutable servable classifier snapshot.
	ServeModel = serve.Model
	// ServeRegistry holds named servable models with hot-reload.
	ServeRegistry = serve.Registry
	// Batcher coalesces concurrent predictions into micro-batches.
	Batcher = serve.Batcher
	// BatcherConfig tunes the micro-batching scheduler.
	BatcherConfig = serve.BatcherConfig
	// ServeServer is the HTTP flow-recommendation service.
	ServeServer = serve.Server
	// ServerConfig tunes the HTTP serving layer.
	ServerConfig = serve.ServerConfig
	// ServeWatcher hot-reloads file-backed models when their files
	// change (flowserve -watch).
	ServeWatcher = serve.Watcher
	// MetricRegistry holds named metric families (counters, gauges,
	// latency histograms) with Prometheus text exposition (DESIGN.md §9).
	MetricRegistry = obs.Registry
	// LatencyHistogram is the lock-free log-bucketed histogram behind
	// every duration metric; its observe path is allocation-free.
	LatencyHistogram = obs.Histogram
	// Trace carries one request's trace ID and stage spans through
	// context.Context across server, batcher, predictor and loop.
	Trace = obs.Trace
)

// Metric values.
const (
	MetricArea  = synth.MetricArea
	MetricDelay = synth.MetricDelay
)

// NewInferenceNet compiles a trained network into the packed float32
// inference engine for the given input image shape.
func NewInferenceNet(net *nn.Network, inH, inW int) (*InferenceNet, error) {
	return nn.NewInferenceNet(net, inH, inW)
}

// NewLoop builds the continuous flow-development loop over a serving
// registry and a labeling engine; drive it with its Run method and wire
// it into a ServeServer with SetLoop (cmd/flowserve -loop does both).
func NewLoop(reg *ServeRegistry, eng *Engine, cfg LoopConfig) (*Loop, error) {
	return loop.New(reg, eng, cfg)
}

// NewServeWatcher baselines the registry's file-backed models for
// change-driven hot reload; run its Run method in a goroutine.
func NewServeWatcher(reg *ServeRegistry) *ServeWatcher { return serve.NewWatcher(reg) }

// DefaultAlphabet is the transformation set S of the paper:
// {balance, restructure, rewrite, refactor, rewrite -z, refactor -z}.
var DefaultAlphabet = flow.DefaultAlphabet

// NewFlowSpace builds an m-repetition flow space over the alphabet.
func NewFlowSpace(alphabet []string, m int) FlowSpace { return flow.NewSpace(alphabet, m) }

// PaperSpace returns the paper's experiment space (n=6, m=4, L=24).
func PaperSpace() FlowSpace { return flow.PaperSpace() }

// Designs lists the available benchmark design names.
func Designs() []string { return circuits.Names() }

// BuildDesign generates a registered benchmark design ("mont64",
// "aes128", "alu64" at paper scale; "mont8", "miniaes", "alu16", ... at
// experiment scale). It panics on unknown names; see Designs.
func BuildDesign(name string) *AIG {
	d, err := circuits.ByName(name)
	if err != nil {
		panic(err)
	}
	return d.Build()
}

// NewEngine builds a flow-evaluation engine over the design with the
// synthetic 14nm library.
func NewEngine(design *AIG, space FlowSpace) *Engine { return synth.NewEngine(design, space) }

// DefaultConfig returns a CPU-scale framework configuration.
func DefaultConfig(space FlowSpace) Config { return core.DefaultConfig(space) }

// PaperConfig returns the paper's exact experiment parameters.
func PaperConfig(space FlowSpace) Config { return core.PaperConfig(space) }

// NewFramework builds the autonomous flow developer.
func NewFramework(cfg Config, engine *Engine) (*Framework, error) { return core.New(cfg, engine) }

// NewServeRegistry returns an empty model registry for serving.
func NewServeRegistry() *ServeRegistry { return serve.NewRegistry() }

// NewServeServer wires the flow-recommendation HTTP service over a
// registry; serve its Handler() with net/http (cmd/flowserve does).
func NewServeServer(reg *ServeRegistry, cfg ServerConfig) *ServeServer {
	return serve.NewServer(reg, cfg)
}

// DefaultServerConfig returns production-shaped serving limits.
func DefaultServerConfig() ServerConfig { return serve.DefaultServerConfig() }

// SaveServeModel / LoadServeModel persist servable models (flowgen
// -save-model writes these files; flowserve loads them).
func SaveServeModel(path string, m *ServeModel) error { return serve.SaveModel(path, m) }

// LoadServeModel reads a model file written by SaveServeModel.
func LoadServeModel(path string) (*ServeModel, error) { return serve.LoadModelFile(path) }

// NewMetricRegistry returns an empty metric registry; serve its
// Handler() as GET /metrics, or pass it through ServerConfig.Obs.
func NewMetricRegistry() *MetricRegistry { return obs.NewRegistry() }

// DefaultMetrics returns the process-wide metric registry that
// package-level instrumentation (predictor compiles, trainer steps)
// records into; cmd/flowserve exposes it on /metrics.
func DefaultMetrics() *MetricRegistry { return obs.Default() }

// NewLogger builds the structured slog logger the commands install as
// slog.Default: text or json format at the given level ("debug",
// "info", "warn", "error"), stamping every context-carrying log record
// with its request's trace ID.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	lvl, err := obs.ParseLogLevel(level)
	if err != nil {
		return nil, err
	}
	return obs.NewLogger(w, format, lvl)
}

// WithTrace derives a context carrying a request trace: id is honored
// when non-empty (a client-supplied X-Request-ID), otherwise generated.
func WithTrace(ctx context.Context, id string) (context.Context, *Trace) {
	return obs.WithTrace(ctx, id)
}

// TraceID returns the trace ID carried by ctx ("" when untraced).
func TraceID(ctx context.Context) string { return obs.TraceID(ctx) }
