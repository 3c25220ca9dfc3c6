// Package fraig implements functional reduction of AIGs (Mishchenko et
// al.'s FRAIG, ABC's fraig) and the one Tseitin encoding of AIG nodes
// (Encode) that it shares with the equivalence checker, internal/cec.
// Random simulation (aig.SimulateNodes) sorts the constant, the primary
// inputs and the live ANDs, in that order, into candidate classes of
// nodes equal up to complement. The first member heads its class, so
// the constant and the inputs head theirs. SAT then checks each later
// AND against its class head, and an AND proven equal to it is merged
// into it. fraig is an extension transformation beyond the paper's flow
// alphabet (the paper's S is kept as published; fraig is registered
// separately).
package fraig

import (
	"flowgen/internal/aig"
	"flowgen/internal/sat"
)

// Options tunes functional reduction.
type Options struct {
	SimWords     int   // random simulation words (default 8 = 512 patterns)
	MaxConflicts int64 // SAT budget per candidate pair (default 1000)
	Seed         int64
}

// Stats reports what a Reduce call did.
type Stats struct {
	Proved    int   // merges proven by SAT
	Disprove  int   // candidates refuted (simulation aliasing)
	Timeout   int   // candidates left unmerged on the conflict budget
	Conflicts int64 // SAT conflicts spent on all candidates
}

// Reduce returns a functionally reduced copy of g along with merge
// statistics. The result is functionally equivalent to the input: every
// merge is SAT-proven, and only a proven pair constrains later proofs.
func Reduce(g *aig.AIG, opt Options) (*aig.AIG, Stats) {
	if opt.SimWords == 0 {
		opt.SimWords = 8
	}
	if opt.MaxConflicts == 0 {
		opt.MaxConflicts = 1000
	}
	var st Stats
	sim := g.SimulateNodes(aig.RandomPatterns(opt.Seed+101, g.NumPIs(), opt.SimWords))
	nw := len(sim) / g.NumNodesRaw()
	// class hashes (FNV-1a) a node's words, complemented so that the
	// first pattern reads 0, and returns the node's literal in that phase.
	class := func(id int) (uint64, aig.Lit) {
		ws := sim[id*nw:][:nw]
		var m uint64
		if nw > 0 {
			m = -(ws[0] & 1)
		}
		h := uint64(14695981039346656037)
		for _, w := range ws {
			h = (h ^ w ^ m) * 1099511628211
		}
		return h, aig.MakeLit(id, m != 0)
	}
	// join returns the head of id's class, or makes id the head of a new
	// one. The constant and the inputs join first, so an AND equal to a
	// constant or an input merges into it.
	heads := map[uint64]aig.Lit{}
	join := func(id int) (head, l aig.Lit, ok bool) {
		h, l := class(id)
		if head, ok = heads[h]; !ok {
			heads[h] = l
		}
		return head, l, ok
	}
	join(0)
	for i := 0; i < g.NumPIs(); i++ {
		join(g.PI(i).Node())
	}

	s := sat.New()
	vars := Encode(s, g)
	satLit := func(l aig.Lit) sat.Lit { return sat.MkLit(vars[l.Node()], l.IsNeg()) }
	// equal SAT-checks a == b; only a proof pins a == b for later checks.
	equal := func(a, b aig.Lit) bool {
		x := sat.MkLit(s.NewVar(), false)
		la, lb := satLit(a), satLit(b)
		s.AddClause(x.Not(), la, lb)
		s.AddClause(x.Not(), la.Not(), lb.Not())
		s.AddClause(x, la, lb.Not())
		s.AddClause(x, la.Not(), lb)
		s.MaxConflicts = s.Conflicts + opt.MaxConflicts
		switch s.Solve(x) {
		case sat.Unsat:
			st.Proved++
			s.AddClause(x.Not())
			return true
		case sat.Sat:
			st.Disprove++
		default:
			st.Timeout++
		}
		return false
	}

	ng := aig.New()
	lits := make([]aig.Lit, g.NumNodesRaw()) // node -> literal in ng
	for i := 0; i < g.NumPIs(); i++ {
		lits[g.PI(i).Node()] = ng.AddInput(g.PIName(i))
	}
	mapLit := func(l aig.Lit) aig.Lit { return lits[l.Node()].NotIf(l.IsNeg()) }
	g.ForEachLiveAnd(func(id int) {
		if head, l, ok := join(id); ok {
			// l and head have equal words, so node id conjecturally
			// equals head complemented by l's phase.
			if r := head.NotIf(l.IsNeg()); equal(aig.MakeLit(id, false), r) {
				lits[id] = mapLit(r)
				return
			}
		}
		lits[id] = ng.And(mapLit(g.Fanin0(id)), mapLit(g.Fanin1(id)))
	})
	st.Conflicts = s.Conflicts
	for i := 0; i < g.NumPOs(); i++ {
		ng.AddOutput(mapLit(g.PO(i)), g.POName(i))
	}
	return ng.Cleanup(), st
}

// Encode Tseitin-encodes the live graph into s and returns the SAT
// variable of each node, indexed by node id; it is the one CNF encoding
// of AIG nodes. The constant node's variable is pinned false. Only the
// constant, the primary inputs and live ANDs get a variable; other
// entries are 0.
func Encode(s *sat.Solver, g *aig.AIG) []int {
	vars := make([]int, g.NumNodesRaw())
	vars[0] = s.NewVar()
	s.AddClause(sat.MkLit(vars[0], true))
	for i := 0; i < g.NumPIs(); i++ {
		vars[g.PI(i).Node()] = s.NewVar()
	}
	lit := func(l aig.Lit) sat.Lit { return sat.MkLit(vars[l.Node()], l.IsNeg()) }
	g.ForEachLiveAnd(func(id int) {
		vars[id] = s.NewVar()
		o, a, b := sat.MkLit(vars[id], false), lit(g.Fanin0(id)), lit(g.Fanin1(id))
		s.AddClause(o.Not(), a)
		s.AddClause(o.Not(), b)
		s.AddClause(o, a.Not(), b.Not())
	})
	return vars
}
