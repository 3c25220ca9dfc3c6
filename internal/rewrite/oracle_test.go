package rewrite

import (
	"slices"
	"testing"

	"flowgen/internal/aig"
	"flowgen/internal/circuits"
)

// The candidate loops of rewrite and refactorK as they were before
// bounded speculation, kept as the oracle the passes are held to: every
// cut is built in full, in a speculation of its own, and the best gain is
// taken over all of them.

// unbounded maps each transformation of Names to its oracle pass.
var unbounded = map[string]func(p *pass, g *aig.AIG) *aig.AIG{
	"balance":     (*pass).balance,
	"rewrite":     func(p *pass, g *aig.AIG) *aig.AIG { return p.rewriteUnbounded(g, false) },
	"rewrite -z":  func(p *pass, g *aig.AIG) *aig.AIG { return p.rewriteUnbounded(g, true) },
	"refactor":    func(p *pass, g *aig.AIG) *aig.AIG { return p.refactorKUnbounded(g, false, refactorLeaves, false) },
	"refactor -z": func(p *pass, g *aig.AIG) *aig.AIG { return p.refactorKUnbounded(g, true, refactorLeaves, false) },
	"restructure": func(p *pass, g *aig.AIG) *aig.AIG { return p.refactorKUnbounded(g, false, 8, true) },
}

// rewriteUnbounded is rewrite with one BeginSpeculate/AbortSpeculate per
// cut and every build run to the end.
func (p *pass) rewriteUnbounded(g *aig.AIG, zero bool) *aig.AIG {
	g.RecomputeRefs()
	g.RecomputeLevels()
	cuts := p.ws.cuts
	cuts.Enumerate(g, 4, rewriteCuts)
	buildCut := func(id, ci int) aig.Lit {
		out, _ := build(p, g, p.lookup(cuts.TT(id, ci)), cuts.Of(id)[ci].Leaves(), -1)
		return out
	}

	for _, id32 := range p.ws.walk.LiveAnds(g) {
		id := int(id32)
		if !g.IsAnd(id) || g.Ref(id) == 0 {
			continue
		}
		if aig.MakeLit(id, false) != g.Resolve(aig.MakeLit(id, false)) {
			continue
		}
		type cand struct {
			gain    int
			cutIdx  int
			changed bool
		}
		best := cand{gain: -1 << 30}
		nodeCuts := cuts.Of(id)
		for ci := range nodeCuts {
			c := &nodeCuts[ci]
			if len(c.Leaves()) < 2 || !leavesUsable(g, id, c.Leaves()) {
				continue
			}
			freed := g.BeginSpeculate(id)
			newLit := buildCut(id, ci)
			if newLit.Node() == id {
				g.AbortSpeculate(id)
				continue
			}
			g.Touch(newLit)
			gain := g.SpeculationGain(freed)
			changed := g.SpeculativeCreated() > 0 || newLit.Node() != id
			g.AbortSpeculate(id)
			if gain > best.gain {
				best = cand{gain: gain, cutIdx: ci, changed: changed}
			}
		}
		accept := best.gain > 0 || (zero && best.gain == 0 && best.changed)
		if best.gain == -1<<30 || !accept {
			continue
		}
		freed := g.BeginSpeculate(id)
		newLit := buildCut(id, best.cutIdx)
		if newLit.Node() == id {
			g.AbortSpeculate(id)
			continue
		}
		g.Touch(newLit)
		if gain := g.SpeculationGain(freed); gain > 0 || (zero && gain == 0) {
			g.CommitSpeculate(id, newLit)
		} else {
			g.AbortSpeculate(id)
		}
	}
	return g.Cleanup()
}

// refactorKUnbounded is refactorK with every build run to the end, and
// with its cone's MFFC measured by MFFCSize before the speculation that
// dereferences it again.
func (p *pass) refactorKUnbounded(g *aig.AIG, zero bool, k int, depthAware bool) *aig.AIG {
	g.RecomputeRefs()
	g.RecomputeLevels()
	cones := &p.ws.cones
	cones.Reset(g)
	for _, id32 := range p.ws.walk.LiveAnds(g) {
		id := int(id32)
		if !g.IsAnd(id) || g.Ref(id) == 0 {
			continue
		}
		if aig.MakeLit(id, false) != g.Resolve(aig.MakeLit(id, false)) {
			continue
		}
		if g.MFFCSize(id) < 2 {
			continue
		}
		leaves := cones.ReconvCut(id, k)
		if len(leaves) < 3 || slices.Contains(leaves, id) {
			continue
		}
		tt, ok := cones.TT(id, leaves)
		if !ok {
			continue
		}
		e := p.lookup(tt)
		oldLevel := g.Level(id)
		freed := g.BeginSpeculate(id)
		newLit, _ := build(p, g, e, leaves, -1)
		if newLit.Node() == id {
			g.AbortSpeculate(id)
			continue
		}
		g.Touch(newLit)
		gain := g.SpeculationGain(freed)
		newLevel := g.Level(newLit.Node())
		accept := gain > 0 ||
			(zero && gain == 0) ||
			(depthAware && gain == 0 && newLevel < oldLevel)
		if accept {
			g.CommitSpeculate(id, newLit)
		} else {
			g.AbortSpeculate(id)
		}
	}
	return g.Cleanup()
}

// fuzzGraph builds a graph from fuzz bytes: the first byte picks 1–8
// PIs, each following pair of bytes one AND of two earlier literals (up
// to 200), counted back from the newest, so small bytes make deep,
// reconvergent logic; the last six literals drive the outputs.
func fuzzGraph(data []byte) *aig.AIG {
	g := aig.New()
	npi := 1
	if len(data) > 0 {
		npi += int(data[0]) % 8
		data = data[1:]
	}
	lits := make([]aig.Lit, 0, npi+200)
	for i := 0; i < npi; i++ {
		lits = append(lits, g.AddInput("i"))
	}
	for i := 0; i+1 < len(data) && i < 400; i += 2 {
		a, b := data[i], data[i+1]
		x := lits[len(lits)-1-int(a>>1)%len(lits)].NotIf(a&1 != 0)
		y := lits[len(lits)-1-int(b>>1)%len(lits)].NotIf(b&1 != 0)
		lits = append(lits, g.And(x, y))
	}
	for i := 0; i < 6 && i < len(lits); i++ {
		g.AddOutput(lits[len(lits)-1-i], "o")
	}
	return g.Cleanup()
}

// FuzzPassesMatchUnbounded holds the bounded passes to the oracle on
// arbitrary small graphs: at the input graph and after each step of a
// flow the fuzzer picks, all six transformations must give the graph
// their oracle gives, fingerprint for fingerprint. FuzzMemoVsDirect
// cannot catch a wrong bound, since its two engines run the same passes.
func FuzzPassesMatchUnbounded(f *testing.F) {
	f.Add([]byte{2, 3}, []byte{3, 0, 2, 4, 7, 9, 10, 12, 1, 14, 17, 16, 5})
	f.Add([]byte{0, 1, 4}, []byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Add([]byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, flow, data []byte) {
		g := fuzzGraph(data)
		for step := 0; ; step++ {
			for _, name := range Names {
				tr, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				want := runPass(nil, nil, g.Clone(), unbounded[name]).StructuralFingerprint()
				if got := Step(tr, g.Clone()).StructuralFingerprint(); got != want {
					t.Fatalf("step %d: %s differs from its unbounded oracle", step, name)
				}
			}
			if step == len(flow) || step == 4 {
				return
			}
			tr, err := ByName(Names[int(flow[step])%len(Names)])
			if err != nil {
				t.Fatal(err)
			}
			g = Step(tr, g)
		}
	})
}

// TestPassesMatchUnboundedOnDesigns holds the bounded passes to the
// oracle on the registered designs the labeling benchmarks use, from
// each design's canonical graph and from the graph a six-step flow
// leaves.
func TestPassesMatchUnboundedOnDesigns(t *testing.T) {
	for _, design := range []string{"alu8", "miniaes2", "mont8"} {
		d, err := circuits.ByName(design)
		if err != nil {
			t.Fatal(err)
		}
		g0 := d.Build().Cleanup()
		g1, _, err := Apply(g0.Clone(), []string{"rewrite -z", "balance", "refactor -z", "restructure", "rewrite", "refactor"})
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range []*aig.AIG{g0, g1} {
			for _, name := range Names {
				tr, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				want := runPass(nil, nil, g.Clone(), unbounded[name]).StructuralFingerprint()
				if got := Step(tr, g.Clone()).StructuralFingerprint(); got != want {
					t.Errorf("%s graph %d: %s differs from its unbounded oracle", design, i, name)
				}
			}
		}
	}
}
