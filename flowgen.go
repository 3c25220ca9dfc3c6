// Package flowgen reproduces "Developing Synthesis Flows Without Human
// Knowledge" (Yu, Xiao, De Micheli — DAC 2018): a fully autonomous
// framework that develops design-specific logic-synthesis flows by
// training a CNN classifier on QoR-labeled random flows and selecting
// the angel-flows (best) and devil-flows (worst) from a large unlabeled
// pool by prediction confidence.
//
// This root package is the public facade over the implementation
// packages for the offline pipeline; serving and the online loop run
// as cmd/flowserve. A minimal run:
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
	"flowgen/internal/aig"
	"flowgen/internal/circuits"
	"flowgen/internal/core"
	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/nn"
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
)

// Metric values.
const (
	MetricArea  = synth.MetricArea
	MetricDelay = synth.MetricDelay
)

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
