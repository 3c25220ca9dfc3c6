// Package cec implements combinational equivalence checking of AIGs,
// ABC's `cec` command, as one pipeline over a miter: the two circuits
// share their primary inputs, and output o of the miter is the XOR of
// their outputs o. Random simulation of the miter looks for a cheap
// counterexample first. fraig.Reduce then sweeps the miter, merging
// every AND that SAT proves equal to an earlier node, so an output whose
// halves agree becomes constant false. Last, SAT on the same Tseitin
// encoding (fraig.Encode) proves or refutes each output the sweep left.
// It upgrades the repository's probabilistic simulation-signature checks
// into proofs that synthesis flows preserve circuit function.
package cec

import (
	"fmt"
	"math/bits"

	"flowgen/internal/aig"
	"flowgen/internal/fraig"
	"flowgen/internal/sat"
)

// Verdict is the outcome of an equivalence check.
type Verdict int

// Verdict values.
const (
	// Equivalent means every output pair was proven equal.
	Equivalent Verdict = iota
	// NotEquivalent means a counterexample was found (see Counterexample).
	NotEquivalent
	// Undecided means the conflict budget was exhausted.
	Undecided
)

func (v Verdict) String() string {
	switch v {
	case Equivalent:
		return "equivalent"
	case NotEquivalent:
		return "NOT equivalent"
	default:
		return "undecided"
	}
}

// Report is the result of Check.
type Report struct {
	Verdict        Verdict
	FailingOutput  int    // for NotEquivalent: index of the differing PO
	Counterexample []bool // PI assignment exposing the difference
	SATConflicts   int64  // conflicts of the sweep and of the residual check
}

// Options tunes the checker.
type Options struct {
	// SimWords is the number of 64-bit random simulation words for the
	// miter and for the sweep's classes (default 4).
	SimWords int
	// MaxConflicts is the SAT conflict budget of the residual check: one
	// budget for all the outputs the sweep left, not one per output
	// (0 = unlimited). Each of the sweep's candidate pairs has fraig's
	// default budget.
	MaxConflicts int64
	Seed         int64
}

// Check proves or refutes functional equivalence of two combinational
// AIGs with identical interfaces (same PI and PO counts; PIs are paired
// by position).
func Check(a, b *aig.AIG, opt Options) (Report, error) {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return Report{}, fmt.Errorf("cec: interface mismatch (%d/%d PIs, %d/%d POs)",
			a.NumPIs(), b.NumPIs(), a.NumPOs(), b.NumPOs())
	}
	if opt.SimWords == 0 {
		opt.SimWords = 4
	}
	m := miter(a, b)

	// Simulation: a set bit in an output's words is a pattern on which
	// the circuits differ.
	pats := aig.RandomPatterns(opt.Seed, m.NumPIs(), opt.SimWords)
	for o, words := range m.Simulate(pats) {
		for w, diff := range words {
			if diff == 0 {
				continue
			}
			bit := bits.TrailingZeros64(diff)
			cex := make([]bool, len(pats))
			for i, p := range pats {
				cex[i] = p[w]>>bit&1 != 0
			}
			return Report{Verdict: NotEquivalent, FailingOutput: o, Counterexample: cex}, nil
		}
	}

	// Sweep, then SAT on each output the sweep did not reduce to false.
	red, st := fraig.Reduce(m, fraig.Options{SimWords: opt.SimWords, Seed: opt.Seed})
	s := sat.New()
	s.MaxConflicts = opt.MaxConflicts
	vars := fraig.Encode(s, red)
	rep := residual(s, vars, red)
	rep.SATConflicts = st.Conflicts + s.Conflicts
	return rep, nil
}

// residual solves each output of the reduced miter for true: a model is
// a counterexample, and an output proven false is pinned for the next.
func residual(s *sat.Solver, vars []int, red *aig.AIG) Report {
	for o := 0; o < red.NumPOs(); o++ {
		po := red.PO(o)
		if po == aig.ConstFalse {
			continue
		}
		x := sat.MkLit(vars[po.Node()], po.IsNeg())
		switch s.Solve(x) {
		case sat.Sat:
			model := s.Model()
			cex := make([]bool, red.NumPIs())
			for i := range cex {
				cex[i] = model[vars[red.PI(i).Node()]]
			}
			return Report{Verdict: NotEquivalent, FailingOutput: o, Counterexample: cex}
		case sat.Unknown:
			return Report{Verdict: Undecided}
		}
		s.AddClause(x.Not())
	}
	return Report{Verdict: Equivalent}
}

// miter returns the graph with a's primary inputs, shared by b, whose
// output o is a.PO(o) XOR b.PO(o).
func miter(a, b *aig.AIG) *aig.AIG {
	m := aig.New()
	pis := make([]aig.Lit, a.NumPIs())
	for i := range pis {
		pis[i] = m.AddInput(a.PIName(i))
	}
	pa, pb := copyInto(m, a, pis), copyInto(m, b, pis)
	for o := range pa {
		m.AddOutput(m.Xor(pa[o], pb[o]), a.POName(o))
	}
	return m
}

// copyInto rebuilds g's live logic in m on the given input literals and
// returns the literals of g's outputs.
func copyInto(m, g *aig.AIG, pis []aig.Lit) []aig.Lit {
	lits := make([]aig.Lit, g.NumNodesRaw())
	for i, l := range pis {
		lits[g.PI(i).Node()] = l
	}
	mapLit := func(l aig.Lit) aig.Lit { return lits[l.Node()].NotIf(l.IsNeg()) }
	g.ForEachLiveAnd(func(id int) {
		lits[id] = m.And(mapLit(g.Fanin0(id)), mapLit(g.Fanin1(id)))
	})
	pos := make([]aig.Lit, g.NumPOs())
	for o := range pos {
		pos[o] = mapLit(g.PO(o))
	}
	return pos
}
