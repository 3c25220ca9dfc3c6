package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"flowgen/internal/aig"
	"flowgen/internal/cec"
	"flowgen/internal/circuits"
	"flowgen/internal/core"
	"flowgen/internal/flow"
	"flowgen/internal/label"
	"flowgen/internal/nn"
	"flowgen/internal/obs"
	"flowgen/internal/opt"
	"flowgen/internal/rewrite"
	"flowgen/internal/synth"
	"flowgen/internal/train"
)

// roundTrainFlows is the paper round's training-set size. flowgen's
// default is 300; 150 (rounds at 100 and 150 labeled flows) keeps one
// round near 11 s on a 2-core machine, well inside one 20 s run.
const roundTrainFlows = 150

// paperConfig is flowgen's default configuration on the paper space
// (m=4), as `flowgen -design alu8 -verify` runs it, with the training
// set cut to roundTrainFlows.
func paperConfig(seed int64) core.Config {
	cfg := core.DefaultConfig(flow.PaperSpace())
	cfg.TrainFlows = roundTrainFlows
	cfg.Seed = seed
	return cfg
}

// buildDesign builds a registered design.
func buildDesign(name string) (*aig.AIG, error) {
	d, err := circuits.ByName(name)
	if err != nil {
		return nil, err
	}
	return d.Build(), nil
}

// paperRound runs the paper's cycle on alu8: label, fit, train, predict
// the pool, select angels and devils. Untraced it calls
// core.Framework.Run; traced it replays the round through the public
// functions Run calls, in Run's order, with a span around each.
func paperRound(r *run) error {
	cfg := paperConfig(r.seed)
	type system struct {
		design *aig.AIG
		fw     *core.Framework
	}
	sys, setup, err := timeMedian(setups, func() (system, error) {
		d, err := buildDesign("alu8")
		if err != nil {
			return system{}, err
		}
		fw, err := core.New(cfg, synth.NewEngine(d, cfg.Space))
		return system{d, fw}, err
	}, nil)
	if err != nil {
		return err
	}
	r.set("setup_s", setup, "s")

	before := obsText()
	var res *core.Result
	var rounds []float64
	var labelTime time.Duration
	var memo synth.MemoStats
	for start := time.Now(); len(rounds) == 0 || fits(start, r.seconds, rounds); {
		fw := sys.fw
		if len(rounds) > 0 {
			// A fresh engine, so the memo starts cold every round.
			if fw, err = core.New(cfg, synth.NewEngine(sys.design, cfg.Space)); err != nil {
				return err
			}
		}
		root := r.tr.begin("core.round", "round", 0)
		if r.tr == nil {
			res, err = fw.Run(nil)
		} else {
			res, err = replayRound(fw, r.tr, root.id())
		}
		d := root.end(nil)
		if r.check(err == nil, "paper round: %v", err); err != nil {
			return nil
		}
		rounds = append(rounds, d.Seconds())
		for _, st := range res.Rounds {
			labelTime += st.Collect
		}
		memo = addMemo(memo, res.Memo)
		sys.fw = fw
	}
	steps := promDelta(before, obsText(), "flowgen_train_step_duration_seconds_count")
	roundS := median(rounds)
	r.set("latency_ms", roundS*1e3, "ms")
	r.set("throughput_per_s", float64(len(rounds)*cfg.TrainFlows)/labelTime.Seconds(), "1/s")
	r.set("label_share", labelTime.Seconds()/(roundS*float64(len(rounds))), "ratio")
	wantSteps := len(rounds) * res.Rounds[len(res.Rounds)-1].Steps
	r.check(steps == float64(wantSteps),
		"/metrics counted %v training steps, the rounds ran %d", steps, wantSteps)

	vs := r.tr.begin("core.verify", "round", 0)
	acc, err := sys.fw.Accuracy(res)
	vs.end(nil)
	r.check(err == nil, "Framework.Accuracy: %v", err)
	r.set("angel_devil_accuracy", acc, "fraction")
	r.check(len(res.Angels) == cfg.NumOut && len(res.Devils) == cfg.NumOut,
		"selected %d angels and %d devils, want %d each", len(res.Angels), len(res.Devils), cfg.NumOut)

	checkMemoVsDirect(r, sys.design, cfg.Space, res.TrainFlows, res.TrainQoRs)
	checkEquivalence(r, "alu8", cfg.Space, res.TrainFlows)
	if r.tr != nil {
		setSynthLayer(r, memo)
		setRoundLayers(r)
	}
	return nil
}

// replayRound is core.Framework.Run taken apart: the same public calls
// on the same seeds, each under a span. It must return what Run returns
// (TestRoundReplayMatchesFrameworkRun).
func replayRound(fw *core.Framework, tr *tracer, root int64) (*core.Result, error) {
	cfg := fw.Cfg
	// Run draws its training flows with Space.RandomUnique from the
	// framework's seeded generator; GeneratePool with no exclusions makes
	// the same draws, leaving that generator where Run's pool sampling
	// starts.
	pool := cfg.SampleFlows
	fw.Cfg.SampleFlows = cfg.TrainFlows
	flows := fw.GeneratePool(nil)
	fw.Cfg.SampleFlows = pool

	net := cfg.Arch.Build(cfg.Seed + 1)
	optimizer, err := opt.ByName(cfg.Optimizer, cfg.LearnRate)
	if err != nil {
		return nil, err
	}
	trainer := train.NewTrainer(net, optimizer, cfg.Seed+2)
	res := &core.Result{Net: net, TrainFlows: flows}
	qors := make([]synth.QoR, 0, cfg.TrainFlows)
	enc := make([][]float64, len(flows))
	var model *label.Model
	steps := 0
	for labeled := 0; labeled < cfg.TrainFlows; {
		target := min(labeled+cfg.RetrainEvery, cfg.TrainFlows)
		if labeled == 0 {
			target = min(cfg.InitialLabeled, cfg.TrainFlows)
		}
		sp := tr.begin("synth.evaluate", "round", root)
		batch, err := fw.Engine.EvaluateAll(flows[labeled:target], nil)
		collect := sp.end(map[string]int64{"flows": int64(target - labeled)})
		if err != nil {
			return nil, err
		}
		qors = append(qors, batch...)
		labeled = target

		sp = tr.begin("label.fit", "round", root)
		model, err = label.Fit(qors, cfg.Metrics, cfg.Percentiles)
		sp.end(nil)
		if err != nil {
			return nil, err
		}

		sp = tr.begin("train.dataset", "round", root)
		ds := &train.Dataset{H: cfg.EncodeH, W: cfg.EncodeW, NumCl: model.NumClasses()}
		for i, f := range flows[:labeled] {
			if enc[i] == nil {
				enc[i] = f.Encode(cfg.Space, cfg.EncodeH, cfg.EncodeW)
			}
			ds.Add(enc[i], model.Class(qors[i]))
		}
		trainer.SetData(ds)
		sp.end(nil)

		sp = tr.begin("train.steps", "round", root)
		loss, err := trainer.Steps(cfg.StepsPerRound)
		trainTime := sp.end(map[string]int64{"steps": int64(cfg.StepsPerRound)})
		if err != nil {
			return nil, err
		}
		steps += cfg.StepsPerRound

		sp = tr.begin("train.accuracy", "round", root)
		acc := train.AccuracyPrec(net, ds, 0, cfg.Precision)
		sp.end(nil)
		res.Rounds = append(res.Rounds, core.RoundStat{Labeled: labeled, Steps: steps, Loss: loss,
			TrainAcc: acc, Collect: collect, TrainTime: trainTime})
	}
	res.Model, res.TrainQoRs, res.Memo = model, qors, fw.Engine.MemoStats()

	sp := tr.begin("core.pool_gen", "round", root)
	poolFlows := fw.GeneratePool(flows)
	sp.end(map[string]int64{"flows": int64(len(poolFlows))})

	sp = tr.begin("nn.compile", "round", root)
	pred, err := nn.NewPredictor(net, cfg.Precision, cfg.EncodeH, cfg.EncodeW)
	sp.end(nil)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("nn.predict", "round", root)
	probs, err := pred.PredictStream(context.Background(), len(poolFlows), 0,
		core.FlowSource(cfg.Space, poolFlows, cfg.EncodeH, cfg.EncodeW))
	sp.end(map[string]int64{"flows": int64(len(poolFlows))})
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.select", "round", root)
	res.Angels, res.Devils = core.SelectFlows(core.ScoreFlows(poolFlows, probs), model.NumClasses(), cfg.NumOut)
	sp.end(nil)
	return res, nil
}

// setRoundLayers derives the round's per-layer metrics from its spans.
func setRoundLayers(r *run) {
	spans := r.tr.snapshot()
	dur, n := totals(spans)
	self := selfTimes(spans)
	ms := func(name string) float64 { return float64(dur[name]) / 1e6 }
	var flows, steps, poolFlows int64
	for _, s := range spans {
		switch s.Name {
		case "synth.evaluate":
			flows += s.Counts["flows"]
		case "train.steps":
			steps += s.Counts["steps"]
		case "nn.predict":
			poolFlows += s.Counts["flows"]
		}
	}
	r.set("synth.evaluate_s", ms("synth.evaluate")/1e3, "s")
	r.set("synth.flows", float64(flows), "count")
	r.set("label.fit_ms", ms("label.fit"), "ms")
	r.set("label.fit_calls", float64(n["label.fit"]), "count")
	r.set("train.steps", float64(steps), "count")
	r.set("train.step_ms", ms("train.steps")/math.Max(float64(steps), 1), "ms")
	r.set("train.accuracy_ms", ms("train.accuracy"), "ms")
	r.set("train.dataset_ms", ms("train.dataset"), "ms")
	r.set("nn.compile_ms", ms("nn.compile"), "ms")
	r.set("nn.predict_flows_per_s", float64(poolFlows)/(ms("nn.predict")/1e3), "1/s")
	r.set("core.pool_gen_ms", ms("core.pool_gen"), "ms")
	r.set("core.select_ms", ms("core.select"), "ms")
	r.set("core.run_self_s", float64(self["core.round"])/1e9, "s")
	r.set("core.verify_s", ms("core.verify")/1e3, "s")
	if ev := ms("synth.evaluate") * 1e3; ev > 0 {
		if run := r.metrics["synth.transforms_run"].Value; run > 0 {
			r.set("synth.us_per_transform", ev/run, "us")
		}
	}
}

// setSynthLayer records the engine's memo counters.
func setSynthLayer(r *run, st synth.MemoStats) {
	for _, c := range []struct {
		name string
		v    int
	}{
		{"synth.direct_steps", st.DirectSteps},
		{"synth.transforms_run", st.TransformsRun},
		{"synth.transition_hits", st.TransitionHits},
		{"synth.victim_hits", st.VictimHits},
		{"synth.evicted_misses", st.EvictedMisses},
		{"synth.map_calls", st.MapCalls},
		{"synth.map_cache_hits", st.MapCacheHits},
		{"synth.peak_graphs", st.PeakGraphs},
	} {
		r.set(c.name, float64(c.v), "count")
	}
	r.set("synth.sharing", st.SpeedupFactor(), "ratio")
}

// exhaustivePrefix fixes the first transformations of exhaustiveFlows.
var exhaustivePrefix = []string{"refactor", "rewrite"}

// exhaustiveFlows lists every flow of the m=1 space that starts with
// exhaustivePrefix: an exhaustive subtree (24 flows), where prefix
// sharing is high, sized so one pass takes about 2 s and a run holds
// enough passes for a steady median.
func exhaustiveFlows(space flow.Space) []flow.Flow {
	var out []flow.Flow
	for _, f := range space.Enumerate(0) {
		names := f.Names(space)
		if slices.Equal(names[:len(exhaustivePrefix)], exhaustivePrefix) {
			out = append(out, f)
		}
	}
	return out
}

// exhaustiveLabel labels an exhaustive subtree of miniaes2's m=1 space
// through a fresh memoized engine per pass, as `qor-distro -design
// miniaes2 -m 1 -all` does for the whole space. Passes repeat until the
// run's time is spent; the seed shuffles each pass's batch order.
func exhaustiveLabel(r *run) error {
	space := flow.NewSpace(flow.DefaultAlphabet, 1)
	flows := exhaustiveFlows(space)
	design, setup, err := timeMedian(setups, func() (*aig.AIG, error) {
		d, err := buildDesign("miniaes2")
		if err == nil {
			synth.NewEngine(d, space)
		}
		return d, err
	}, nil)
	if err != nil {
		return err
	}
	r.set("setup_s", setup, "s")

	rng := rand.New(rand.NewSource(r.seed))
	var passes []float64
	var want []synth.QoR
	var memo synth.MemoStats
	for start := time.Now(); len(passes) == 0 || fits(start, r.seconds, passes); {
		order := rng.Perm(len(flows))
		batch := make([]flow.Flow, len(flows))
		for i, j := range order {
			batch[i] = flows[j]
		}
		eng := synth.NewEngine(design, space)
		sp := r.tr.begin("synth.evaluate", fmt.Sprintf("pass%d", len(passes)), 0)
		qors, err := eng.EvaluateAll(batch, nil)
		d := sp.end(map[string]int64{"flows": int64(len(batch))})
		if r.check(err == nil, "EvaluateAll: %v", err); err != nil {
			return nil
		}
		passes = append(passes, d.Seconds())
		byFlow := make([]synth.QoR, len(flows))
		for i, j := range order {
			byFlow[j] = qors[i]
		}
		if want == nil {
			want = byFlow
		}
		same := true
		for i := range want {
			same = same && sameQoR(want[i], byFlow[i])
		}
		r.check(same, "pass %d QoRs differ from pass 0", len(passes)-1)
		memo = addMemo(memo, eng.MemoStats())
	}
	pass := median(passes)
	r.set("latency_ms", pass*1e3, "ms")
	r.set("throughput_per_s", float64(len(flows))/pass, "1/s")

	checkMemoVsDirect(r, design, space, flows, want)
	if r.tr != nil {
		setSynthLayer(r, memo)
		spans := r.tr.snapshot()
		dur, _ := totals(spans)
		r.set("synth.evaluate_s", float64(dur["synth.evaluate"])/1e9, "s")
		r.set("synth.flows", float64(len(passes)*len(flows)), "count")
		r.set("synth.us_per_transform", float64(dur["synth.evaluate"])/1e3/float64(max(memo.TransformsRun, 1)), "us")
	}
	return nil
}

// fits reports whether one more unit of work, as long as the last one
// (in seconds), still ends within budget of start.
func fits(start time.Time, budget time.Duration, done []float64) bool {
	last := time.Duration(done[len(done)-1] * float64(time.Second))
	return time.Since(start)+last <= budget
}

// addMemo sums the counters of two engines' memo statistics (peak
// graphs take the larger).
func addMemo(a, b synth.MemoStats) synth.MemoStats {
	a.Flows += b.Flows
	a.TrieNodes += b.TrieNodes
	a.DirectSteps += b.DirectSteps
	a.TransformsRun += b.TransformsRun
	a.TransitionHits += b.TransitionHits
	a.EvictedMisses += b.EvictedMisses
	a.VictimHits += b.VictimHits
	a.MapCalls += b.MapCalls
	a.MapCacheHits += b.MapCacheHits
	a.Clones += b.Clones
	a.PeakGraphs = max(a.PeakGraphs, b.PeakGraphs)
	return a
}

// sameQoR compares two QoRs bit for bit.
func sameQoR(a, b synth.QoR) bool {
	return math.Float64bits(a.Area) == math.Float64bits(b.Area) &&
		math.Float64bits(a.Delay) == math.Float64bits(b.Delay) &&
		a.Gates == b.Gates && a.Ands == b.Ands && a.Levels == b.Levels
}

// memoChecks is how many seeded flows are re-labeled without the memo.
const memoChecks = 32

// checkMemoVsDirect re-labels seeded flows on a Memo=false engine; each
// must equal its memoized QoR bit for bit.
func checkMemoVsDirect(r *run, design *aig.AIG, space flow.Space, flows []flow.Flow, qors []synth.QoR) {
	rng := rand.New(rand.NewSource(r.seed + 7))
	idx := rng.Perm(len(flows))[:min(memoChecks, len(flows))]
	sel := make([]flow.Flow, len(idx))
	for i, j := range idx {
		sel[i] = flows[j]
	}
	direct := synth.NewEngine(design, space)
	direct.Memo = false
	got, err := direct.EvaluateAll(sel, nil)
	if err != nil {
		r.check(false, "direct EvaluateAll: %v", err)
		return
	}
	for i, j := range idx {
		r.check(sameQoR(got[i], qors[j]), "flow %q: direct QoR %+v, memoized %+v",
			flows[j].String(space), got[i], qors[j])
	}
}

// cecChecks is how many seeded flows are proven function-preserving.
const cecChecks = 4

// checkEquivalence applies seeded flows to a fresh build of the design
// with rewrite.Apply; cec.Check must prove each result equivalent.
func checkEquivalence(r *run, name string, space flow.Space, flows []flow.Flow) {
	rng := rand.New(rand.NewSource(r.seed + 11))
	for _, j := range rng.Perm(len(flows))[:min(cecChecks, len(flows))] {
		golden, err := buildDesign(name)
		if err != nil {
			r.check(false, "building %s: %v", name, err)
			continue
		}
		fresh, _ := buildDesign(name)
		optimized, _, err := rewrite.Apply(fresh, flows[j].Names(space))
		if err != nil {
			r.check(false, "rewrite.Apply: %v", err)
			continue
		}
		rep, err := cec.Check(golden, optimized, cec.Options{Seed: r.seed})
		r.check(err == nil && rep.Verdict == cec.Equivalent, "flow %q on %s: cec verdict %v, err %v",
			flows[j].String(space), name, rep.Verdict, err)
	}
}

// obsText renders the process-wide metric registry as GET /metrics does.
func obsText() string {
	var b bytes.Buffer
	obs.Default().WritePrometheus(&b)
	return b.String()
}
