package fraig_test

import (
	"math/rand"
	"testing"

	"flowgen/internal/aig"
	"flowgen/internal/circuits"
	"flowgen/internal/fraig"
)

// exhaustive returns g's output words over every minterm of its inputs:
// bit b of word w is minterm 64w+b (graphs of fewer than six inputs
// repeat minterms within the one word).
func exhaustive(g *aig.AIG) [][]uint64 {
	nw := 1
	if n := g.NumPIs(); n > 6 {
		nw = 1 << (n - 6)
	}
	pats := make([][]uint64, g.NumPIs())
	for i := range pats {
		pats[i] = make([]uint64, nw)
		for m := 0; m < 64*nw; m++ {
			pats[i][m/64] |= uint64(m>>i&1) << (m % 64)
		}
	}
	return g.Simulate(pats)
}

// sameFunction reports whether a and b compute the same outputs on every
// minterm.
func sameFunction(a, b *aig.AIG) bool {
	oa, ob := exhaustive(a), exhaustive(b)
	for o := range oa {
		if !aig.SigEqual(oa[o], ob[o]) {
			return false
		}
	}
	return len(oa) == len(ob)
}

func TestMergesRedundantStructures(t *testing.T) {
	// Two structurally different implementations of the same function:
	// f1 = a&b | a&c, f2 = a & (b|c). Strash cannot merge them; fraig must.
	g := aig.New()
	a, b, c := g.AddInput("a"), g.AddInput("b"), g.AddInput("c")
	f1 := g.Or(g.And(a, b), g.And(a, c))
	f2 := g.And(a, g.Or(b, c))
	g.AddOutput(f1, "f1")
	g.AddOutput(f2, "f2")
	g.RecomputeRefs()
	before := g.NumAnds()

	out, st := fraig.Reduce(g, fraig.Options{})
	if st.Proved == 0 {
		t.Fatalf("no merges proven (stats %+v)", st)
	}
	if out.NumAnds() >= before {
		t.Fatalf("no reduction: %d -> %d", before, out.NumAnds())
	}
	if !sameFunction(g, out) {
		t.Fatal("fraig changed function")
	}
}

func TestComplementMerge(t *testing.T) {
	// g1 = !(a&b) built one way, g2 = !a | !b built another: equivalent
	// up to structure; additionally provide nodes equal up to complement.
	g := aig.New()
	a, b := g.AddInput("a"), g.AddInput("b")
	n1 := g.And(a, b)
	// !(a&b) built through a structurally different mux form so that
	// structural hashing cannot fold it: a ? !b : 1.
	n2 := g.Mux(a, b.Not(), aig.ConstTrue)
	g.AddOutput(n1, "f1")
	g.AddOutput(n2, "f2")
	g.RecomputeRefs()
	before := g.NumAnds()
	if before < 2 {
		t.Fatalf("test premise broken: strash already folded the mux (%d ANDs)", before)
	}
	out, st := fraig.Reduce(g, fraig.Options{})
	if st.Proved == 0 {
		t.Fatalf("complement pair not merged: %+v", st)
	}
	if out.NumAnds() != 1 {
		t.Fatalf("want single AND after merge, got %d", out.NumAnds())
	}
	if !sameFunction(g, out) {
		t.Fatal("function changed")
	}
}

func TestMergesIntoConstantsAndInputs(t *testing.T) {
	// a&(a|b) is a, and (a&b)&(!a|!b) is false, but strash folds neither.
	g := aig.New()
	a, b := g.AddInput("a"), g.AddInput("b")
	g.AddOutput(g.And(a, g.Or(a, b)), "a")
	g.AddOutput(g.And(g.And(a, b), g.Or(a.Not(), b.Not())), "zero")
	out, st := fraig.Reduce(g, fraig.Options{})
	if out.NumAnds() != 0 || out.PO(0) != out.PI(0) || out.PO(1) != aig.ConstFalse {
		t.Fatalf("want outputs a and 0 with no AND, got %v and %v in %d ANDs (stats %+v)",
			out.PO(0), out.PO(1), out.NumAnds(), st)
	}
}

func TestPreservesFunctionOnRealDesigns(t *testing.T) {
	for _, name := range []string{"alu8", "miniaes2"} {
		d, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Build()
		before := g.NumAnds()
		out, st := fraig.Reduce(g, fraig.Options{MaxConflicts: 2000})
		if out.NumAnds() > before {
			t.Fatalf("%s: fraig grew the graph %d -> %d", name, before, out.NumAnds())
		}
		if !aig.SigEqual(g.SimSignature(5, 4), out.SimSignature(5, 4)) {
			t.Fatalf("%s: function changed", name)
		}
		t.Logf("%s: %d -> %d ANDs (proved %d, disproved %d, timeout %d)",
			name, before, out.NumAnds(), st.Proved, st.Disprove, st.Timeout)
	}
}

// andChain returns the graph of n inputs whose output is p&q, with c the
// AND of all inputs, p = c&x[n-2] and q = c&x[n-1]: every node is 0 on
// random patterns, so all alias into one class, yet p and q equal c.
func andChain(n int) *aig.AIG {
	g := aig.New()
	x := make([]aig.Lit, n)
	for i := range x {
		x[i] = g.AddInput("x")
	}
	c := x[0]
	for _, l := range x[1:] {
		c = g.And(c, l)
	}
	g.AddOutput(g.And(g.And(c, x[n-2]), g.And(c, x[n-1])), "f")
	return g
}

// TestDisprovedCandidatesAreNotPinned checks that a candidate pair SAT
// refuted, or gave up on, is never asserted equal: later proofs would
// run on that false constraint and merge unequal nodes. Every node of
// the chain aliases with the constant, so most candidates are refuted.
func TestDisprovedCandidatesAreNotPinned(t *testing.T) {
	for _, tc := range []struct {
		inputs int
		opt    fraig.Options
	}{{13, fraig.Options{SimWords: 1}}, {18, fraig.Options{}}} {
		g := andChain(tc.inputs)
		for seed := int64(0); seed < 20; seed++ {
			tc.opt.Seed = seed
			out, st := fraig.Reduce(g, tc.opt)
			if !sameFunction(g, out) {
				t.Fatalf("%d inputs, seed %d: reduced graph differs (stats %+v)", tc.inputs, seed, st)
			}
		}
	}
}

func TestSimulationAliasesAreRefutedNotMerged(t *testing.T) {
	// ANDs of up to 12 distinct inputs, in random phases, are 0 on
	// almost every one of 64 patterns but are not constant, so they
	// alias with the constant and with each other; SAT must refute those
	// candidates rather than merge unequal nodes.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		g := aig.New()
		var lits []aig.Lit
		for i := 0; i < 14; i++ {
			lits = append(lits, g.AddInput("x"))
		}
		pick := func() aig.Lit { return lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0) }
		for chain := 0; chain < 4; chain++ {
			perm := rng.Perm(14)
			c := lits[perm[0]]
			for _, i := range perm[1:12] {
				c = g.And(c, lits[i].NotIf(rng.Intn(2) == 0))
				lits = append(lits, c)
			}
		}
		for i := 0; i < 30; i++ {
			lits = append(lits, g.And(pick(), pick()))
		}
		for i := 0; i < 4; i++ {
			g.AddOutput(lits[len(lits)-1-i], "o")
		}
		out, st := fraig.Reduce(g, fraig.Options{SimWords: 1, Seed: int64(trial)})
		if st.Disprove == 0 {
			t.Fatalf("trial %d: no candidate refuted (stats %+v); the inputs do not alias", trial, st)
		}
		if !sameFunction(g, out) {
			t.Fatalf("trial %d: incorrect merge slipped through (stats %+v)", trial, st)
		}
	}
}

func BenchmarkReduceALU8(b *testing.B) {
	d, _ := circuits.ByName("alu8")
	for i := 0; i < b.N; i++ {
		g := d.Build()
		_, _ = fraig.Reduce(g, fraig.Options{})
	}
}
