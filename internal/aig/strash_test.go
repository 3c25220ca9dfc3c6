package aig

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// strashModel is the structural-hash semantics the chained bins must
// reproduce, kept as a map: the newest node per fanin pair, overwritten
// by a fresh node when that node is dead during speculation, with every
// overwrite logged so an abort restores what it replaced.
type strashModel struct {
	newest      map[[2]Lit]int
	undo        []strashUndo
	speculating bool
	shadowed    int // dead nodes a speculative node shadowed
}

type strashUndo struct {
	key [2]Lit
	id  int
	had bool
}

// and predicts the literal g.And(x, y) returns and records the node it
// creates, if any.
func (m *strashModel) and(g *AIG, x, y Lit) Lit {
	a, b := g.Resolve(x), g.Resolve(y)
	switch {
	case a == ConstFalse || b == ConstFalse || a == b.Not():
		return ConstFalse
	case a == ConstTrue:
		return b
	case b == ConstTrue || a == b:
		return a
	}
	key := [2]Lit{min(a, b), max(a, b)}
	id, ok := m.newest[key]
	if ok && (g.Ref(id) > 0 || !m.speculating) {
		return MakeLit(id, false)
	}
	if m.speculating {
		m.undo = append(m.undo, strashUndo{key, id, ok})
		if ok {
			m.shadowed++
		}
	}
	m.newest[key] = g.NumNodesRaw()
	return MakeLit(g.NumNodesRaw(), false)
}

// rollback restores the entries the candidate overwrote, newest first,
// and stays in speculation.
func (m *strashModel) rollback() {
	for i := len(m.undo) - 1; i >= 0; i-- {
		u := m.undo[i]
		if u.had {
			m.newest[u.key] = u.id
		} else {
			delete(m.newest, u.key)
		}
	}
	m.undo = m.undo[:0]
}

// abort is a rollback that ends the speculation.
func (m *strashModel) abort() {
	m.rollback()
	m.end()
}

func (m *strashModel) end() { m.undo, m.speculating = m.undo[:0], false }

// modelOf is the model of a graph no speculation has touched: each
// fanin pair maps to its newest node.
func modelOf(g *AIG) *strashModel {
	m := &strashModel{newest: map[[2]Lit]int{}}
	for id := range g.nodes {
		if n := &g.nodes[id]; n.kind == KindAnd {
			m.newest[[2]Lit{n.f0, n.f1}] = id
		}
	}
	return m
}

// checkCounted fails the test when g says it carries its counts
// (RecomputeRefs and RecomputeLevels would return at once) but a recount
// on a clone that does not say so gives other references or levels. It
// reports whether g said so.
func checkCounted(t *testing.T, g *AIG, where string) bool {
	t.Helper()
	if !g.counted {
		return false
	}
	if g.speculating {
		t.Fatalf("%s: a speculating graph says it carries its counts", where)
	}
	c := g.Clone()
	c.counted = false
	c.RecomputeRefs()
	c.RecomputeLevels()
	for id := range g.nodes {
		if g.nodes[id].ref != c.nodes[id].ref || g.nodes[id].level != c.nodes[id].level {
			t.Fatalf("%s: node %d carries ref %d and level %d, a recount gives %d and %d",
				where, id, g.nodes[id].ref, g.nodes[id].level, c.nodes[id].ref, c.nodes[id].level)
		}
	}
	return true
}

// hasDeadAnd reports whether some AND node of g has no reference.
func hasDeadAnd(g *AIG) bool {
	for _, n := range g.nodes {
		if n.kind == KindAnd && n.ref == 0 {
			return true
		}
	}
	return false
}

func (m *strashModel) clone() *strashModel {
	c := &strashModel{newest: make(map[[2]Lit]int, len(m.newest))}
	for k, v := range m.newest {
		c.newest[k] = v
	}
	return c
}

// specState is what a rollback restores: every node's reference count,
// and so the node count, and the node each AND node's fanin pair looks
// up.
type specState struct {
	refs    []int32
	lookups []int32
}

func snapshot(g *AIG) specState {
	var s specState
	for id := range g.nodes {
		n := &g.nodes[id]
		s.refs = append(s.refs, n.ref)
		if n.kind == KindAnd {
			s.lookups = append(s.lookups, lookup(g, n.f0, n.f1))
		}
	}
	return s
}

func (s specState) equal(o specState) bool {
	return slices.Equal(s.refs, o.refs) && slices.Equal(s.lookups, o.lookups)
}

// lookup returns the first node of the fanin pair's chain with those
// fanins, the node And would reuse, or 0 when there is none.
func lookup(g *AIG, a, b Lit) int32 {
	for id := g.bins[g.bin(a, b)]; id != 0; id = g.nodes[id].next {
		if n := &g.nodes[id]; n.f0 == a && n.f1 == b {
			return id
		}
	}
	return 0
}

// TestStrashMatchesMapModel runs random graphs through random sequences
// of And, AddOutput, BeginSpeculate, Touch, RollbackSpeculate,
// CommitSpeculate, AbortSpeculate, RecursiveDeref, RecursiveRef, Cleanup
// and Clone beside a map model of structural hashing. Candidates rebuild
// nodes of the speculation root's cone from their fanins, so dead nodes
// are shadowed and restored; graphs start with few bins, so chains are
// rehashed, during speculation too. Every And on the graph and on each
// of its clones must return the literal the model predicts.
// SpeculationCost must never fall while a candidate is built and
// touched; after each rollback, references, lookups and the node count
// must be those BeginSpeculate left; and the commit or abort that ends a
// speculation with rollbacks must leave the graph that a replay of its
// last candidate alone leaves on a clone taken before it. After every
// operation, a graph that says it carries its counts must hold what a
// recount gives (checkCounted); Cleanup sets that, and once also on a
// copy where a fanout folded to a constant leaves an AND dead, so that
// its recount fallback runs and an output added to the dead AND must
// make the graph stop saying so.
func TestStrashMatchesMapModel(t *testing.T) {
	{
		g := New()
		a, b, c := g.AddInput("a"), g.AddInput("b"), g.AddInput("c")
		x, z := g.And(a, b), g.And(a, c)
		g.AddOutput(g.And(x, z), "y")
		g.RecomputeRefs()
		g.BeginSpeculate(z.Node())
		g.CommitSpeculate(z.Node(), x.Not()) // y is now x AND NOT x
		ng := g.Cleanup()
		if !ng.counted || !hasDeadAnd(ng) {
			t.Fatalf("Cleanup of a graph whose output folds to a constant: counted %v, dead AND %v, want both", ng.counted, hasDeadAnd(ng))
		}
		checkCounted(t, ng, "Cleanup leaving a dead AND")
		ng.AddOutput(MakeLit(ng.NumNodesRaw()-1, false), "dead")
		checkCounted(t, ng, "AddOutput of a dead AND")
	}

	rng := rand.New(rand.NewSource(19))
	type replica struct {
		g *AIG
		m *strashModel
	}
	var shadowed, specRehashes, cloneRounds, rollbacks, replays, counted, cleanups, fallbacks int
	for trial := 0; trial < 60; trial++ {
		reps := []replica{{NewSized(1 + rng.Intn(16)), &strashModel{newest: map[[2]Lit]int{}}}}
		var ops [][2]Lit // the Ands of the candidate being built
		cost := 0        // reps[0]'s SpeculationCost after the last And
		and := func(x, y Lit) Lit {
			var got Lit
			for i, r := range reps {
				want := r.m.and(r.g, x, y)
				if got = r.g.And(x, y); got != want {
					t.Fatalf("trial %d replica %d: And(%d, %d) = %d, model says %d", trial, i, x, y, got, want)
				}
			}
			if g := reps[0].g; g.speculating {
				ops = append(ops, [2]Lit{x, y})
				c := g.SpeculationCost()
				if c < cost {
					t.Fatalf("trial %d: SpeculationCost fell from %d to %d during a build", trial, cost, c)
				}
				cost = c
			}
			return got
		}
		each := func(f func(g *AIG)) {
			for _, r := range reps {
				f(r.g)
			}
		}
		check := func(where string) {
			for i, r := range reps {
				if checkCounted(t, r.g, fmt.Sprintf("trial %d replica %d, %s", trial, i, where)) {
					counted++
				}
			}
		}

		nin := 2 + rng.Intn(6)
		lits := []Lit{}
		for i := 0; i < nin; i++ {
			l := reps[0].g.AddInput("i")
			lits = append(lits, l)
		}
		for i := 0; i < 20+rng.Intn(80); i++ {
			x := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			y := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			lits = append(lits, and(x, y))
		}
		for i := 0; i < 4; i++ {
			reps[0].g.AddOutput(lits[len(lits)-1-i].NotIf(i%2 == 0), "o")
		}
		reps[0].g.RecomputeRefs()

		for round := 0; round < 40; round++ {
			check("round start")
			g := reps[0].g
			live := g.LiveAnds()
			if len(live) == 0 {
				break
			}
			switch op := rng.Intn(12); {
			case op == 0 && len(reps) < 4:
				src := reps[rng.Intn(len(reps))]
				reps = append(reps, replica{src.g.Clone(), src.m.clone()})
				continue
			case op == 1:
				shadowed += reps[0].m.shadowed
				for i, r := range reps {
					ng := r.g.Cleanup()
					reps[i] = replica{ng, modelOf(ng)}
				}
				cleanups++
				if hasDeadAnd(reps[0].g) {
					fallbacks++
				}
				continue
			case op == 2:
				// An And outside speculation: a new node is dead.
				x := MakeLit(live[rng.Intn(len(live))], rng.Intn(2) == 0)
				y := g.PI(rng.Intn(g.NumPIs())).NotIf(rng.Intn(2) == 0)
				and(x, y)
				continue
			case op == 3:
				l := MakeLit(live[rng.Intn(len(live))], rng.Intn(2) == 0)
				each(func(g *AIG) { g.AddOutput(l, "o") })
				continue
			case op == 4:
				// A cone dereferenced and referenced again, in either
				// order, is what it was.
				id := live[rng.Intn(len(live))]
				if rng.Intn(2) == 0 {
					each(func(g *AIG) { g.RecursiveDeref(id) })
					check("RecursiveDeref")
					each(func(g *AIG) { g.RecursiveRef(id) })
				} else {
					each(func(g *AIG) { g.RecursiveRef(id) })
					check("RecursiveRef")
					each(func(g *AIG) { g.RecursiveDeref(id) })
				}
				continue
			}
			root := live[rng.Intn(len(live))]
			if g.Ref(root) == 0 || g.Resolve(MakeLit(root, false)) != MakeLit(root, false) {
				continue
			}
			tfi := g.TFISorted(root)
			plain := g.Clone()
			each(func(g *AIG) { g.BeginSpeculate(root) })
			check("BeginSpeculate")
			for _, r := range reps {
				r.m.speculating = true
			}
			begun := snapshot(g)
			// An operand is a literal of root's fanin cone or a rebuild of
			// one of its nodes, which shadows the node if its cone is
			// dead. Chaining the operands keeps new nodes referenced.
			bins := len(g.bins)
			operand := func() Lit {
				n := tfi[rng.Intn(len(tfi))]
				if n == root || !g.IsAnd(n) || rng.Intn(2) == 0 {
					if n == root {
						n = g.PI(0).Node()
					}
					return MakeLit(n, rng.Intn(2) == 1)
				}
				return and(g.Fanin0(n), g.Fanin1(n)).NotIf(rng.Intn(2) == 1)
			}
			// candidate builds a candidate and touches it unless root is
			// in its cone, which it reports: a lookup may return root
			// (its fanout keeps it referenced), and committing a
			// candidate built on it would make a cycle.
			candidate := func() (Lit, bool) {
				ops, cost = ops[:0], 0
				cand := operand()
				for d := rng.Intn(5); d > 0; d-- {
					cand = and(cand, operand())
				}
				if slices.Contains(g.TFISorted(g.Resolve(cand).Node()), root) {
					return cand, false
				}
				each(func(g *AIG) { g.Touch(cand) })
				check("Touch")
				if c := g.SpeculationCost(); c < cost {
					t.Fatalf("trial %d round %d: Touch lowered SpeculationCost from %d to %d", trial, round, cost, c)
				}
				return cand, true
			}
			rolled := rng.Intn(3)
			for i := 0; i < rolled; i++ {
				candidate()
				each(func(g *AIG) { g.RollbackSpeculate() })
				check("RollbackSpeculate")
				for _, r := range reps {
					r.m.rollback()
				}
				if !snapshot(g).equal(begun) || g.SpeculationCost() != 0 {
					t.Fatalf("trial %d round %d: rollback %d left a state other than BeginSpeculate's", trial, round, i)
				}
				rollbacks++
			}
			cand, touched := candidate()
			if len(g.bins) != bins {
				specRehashes++
			}
			if len(reps) > 1 {
				cloneRounds++
			}
			commit := touched && rng.Intn(2) == 0
			end := func(g *AIG) {
				if commit {
					// An operand that a trivial case drops leaves a
					// speculative node no one references, so a commit is
					// followed by the recount a pass starts with.
					g.CommitSpeculate(root, cand)
					g.RecomputeRefs()
				} else {
					g.AbortSpeculate(root)
				}
			}
			each(end)
			check("CommitSpeculate or AbortSpeculate")
			for _, r := range reps {
				if commit {
					r.m.end()
				} else {
					r.m.abort()
				}
			}
			for i, r := range reps {
				if i > 0 && r.g.StructuralFingerprint() != g.StructuralFingerprint() {
					t.Fatalf("trial %d round %d: replica %d diverged from the original", trial, round, i)
				}
			}
			if rolled > 0 {
				plain.BeginSpeculate(root)
				for _, op := range ops {
					plain.And(op[0], op[1])
				}
				if touched {
					plain.Touch(cand)
				}
				end(plain)
				if !snapshot(plain).equal(snapshot(g)) || plain.StructuralFingerprint() != g.StructuralFingerprint() {
					t.Fatalf("trial %d round %d: ending after %d rollbacks differs from ending after none", trial, round, rolled)
				}
				replays++
			}
		}
		shadowed += reps[0].m.shadowed
	}
	if shadowed == 0 || specRehashes == 0 || cloneRounds == 0 || rollbacks == 0 || replays == 0 || counted == 0 || cleanups == 0 {
		t.Fatalf("sequences shadowed %d dead nodes, rehashed %d times while speculating, ran %d rounds on clones, "+
			"rolled back %d candidates, replayed %d ends, checked %d counted graphs and ran %d cleanups; want all seven",
			shadowed, specRehashes, cloneRounds, rollbacks, replays, counted, cleanups)
	}
	t.Logf("%d cleanups, %d of them leaving a dead AND; %d counted graphs checked", cleanups, fallbacks, counted)
}
