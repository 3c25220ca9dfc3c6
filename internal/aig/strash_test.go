package aig

import (
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
// of And, BeginSpeculate, Touch, RollbackSpeculate, CommitSpeculate,
// AbortSpeculate and Clone beside a map model of structural hashing.
// Candidates rebuild nodes of the speculation root's cone from their
// fanins, so dead nodes are shadowed and restored; graphs start with few
// bins, so chains are rehashed, during speculation too. Every And on the
// graph and on each of its clones must return the literal the model
// predicts. SpeculationCost must never fall while a candidate is built
// and touched; after each rollback, references, lookups and the node
// count must be those BeginSpeculate left; and the commit or abort that
// ends a speculation with rollbacks must leave the graph that a replay
// of its last candidate alone leaves on a clone taken before it.
func TestStrashMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type replica struct {
		g *AIG
		m *strashModel
	}
	var shadowed, specRehashes, cloneRounds, rollbacks, replays int
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
			g := reps[0].g
			if len(reps) < 4 && rng.Intn(6) == 0 {
				src := reps[rng.Intn(len(reps))]
				reps = append(reps, replica{src.g.Clone(), src.m.clone()})
				continue
			}
			live := g.LiveAnds()
			if len(live) == 0 {
				break
			}
			root := live[rng.Intn(len(live))]
			if g.Ref(root) == 0 || g.Resolve(MakeLit(root, false)) != MakeLit(root, false) {
				continue
			}
			tfi := g.TFISorted(root)
			plain := g.Clone()
			each(func(g *AIG) { g.BeginSpeculate(root) })
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
			// candidate builds a candidate and touches it unless it is
			// root itself, which it reports.
			candidate := func() (Lit, bool) {
				ops, cost = ops[:0], 0
				cand := operand()
				for d := rng.Intn(5); d > 0; d-- {
					cand = and(cand, operand())
				}
				if g.Resolve(cand).Node() == root {
					return cand, false
				}
				each(func(g *AIG) { g.Touch(cand) })
				if c := g.SpeculationCost(); c < cost {
					t.Fatalf("trial %d round %d: Touch lowered SpeculationCost from %d to %d", trial, round, cost, c)
				}
				return cand, true
			}
			rolled := rng.Intn(3)
			for i := 0; i < rolled; i++ {
				candidate()
				each(func(g *AIG) { g.RollbackSpeculate() })
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
	if shadowed == 0 || specRehashes == 0 || cloneRounds == 0 || rollbacks == 0 || replays == 0 {
		t.Fatalf("sequences shadowed %d dead nodes, rehashed %d times while speculating, ran %d rounds on clones, "+
			"rolled back %d candidates and replayed %d ends; want all five", shadowed, specRehashes, cloneRounds, rollbacks, replays)
	}
}
