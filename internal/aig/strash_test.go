package aig

import (
	"math/rand"
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

// abort restores the entries the speculation overwrote, newest first.
func (m *strashModel) abort() {
	for i := len(m.undo) - 1; i >= 0; i-- {
		u := m.undo[i]
		if u.had {
			m.newest[u.key] = u.id
		} else {
			delete(m.newest, u.key)
		}
	}
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

// TestStrashMatchesMapModel runs random graphs through random sequences
// of And, BeginSpeculate, Touch, CommitSpeculate, AbortSpeculate and
// Clone beside a map model of structural hashing. Candidates rebuild
// nodes of the speculation root's cone from their fanins, so dead nodes
// are shadowed and restored; graphs start with few bins, so chains are
// rehashed, during speculation too. Every And on the graph and on each of
// its clones must return the literal the model predicts.
func TestStrashMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type replica struct {
		g *AIG
		m *strashModel
	}
	var shadowed, specRehashes, cloneRounds int
	for trial := 0; trial < 60; trial++ {
		reps := []replica{{NewSized(1 + rng.Intn(16)), &strashModel{newest: map[[2]Lit]int{}}}}
		and := func(x, y Lit) Lit {
			var got Lit
			for i, r := range reps {
				want := r.m.and(r.g, x, y)
				if got = r.g.And(x, y); got != want {
					t.Fatalf("trial %d replica %d: And(%d, %d) = %d, model says %d", trial, i, x, y, got, want)
				}
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
			each(func(g *AIG) { g.BeginSpeculate(root) })
			for _, r := range reps {
				r.m.speculating = true
			}
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
			cand := operand()
			for d := rng.Intn(5); d > 0; d-- {
				cand = and(cand, operand())
			}
			if len(g.bins) != bins {
				specRehashes++
			}
			if len(reps) > 1 {
				cloneRounds++
			}
			if g.Resolve(cand).Node() == root {
				each(func(g *AIG) { g.AbortSpeculate(root) })
				for _, r := range reps {
					r.m.abort()
				}
				continue
			}
			each(func(g *AIG) { g.Touch(cand) })
			if rng.Intn(2) == 0 {
				// An operand that a trivial case drops leaves a speculative
				// node no one references, so a commit is followed by the
				// recount a pass starts with.
				each(func(g *AIG) {
					g.CommitSpeculate(root, cand)
					g.RecomputeRefs()
				})
				for _, r := range reps {
					r.m.end()
				}
			} else {
				each(func(g *AIG) { g.AbortSpeculate(root) })
				for _, r := range reps {
					r.m.abort()
				}
			}
			for i, r := range reps {
				if i > 0 && r.g.StructuralFingerprint() != g.StructuralFingerprint() {
					t.Fatalf("trial %d round %d: replica %d diverged from the original", trial, round, i)
				}
			}
		}
		shadowed += reps[0].m.shadowed
	}
	if shadowed == 0 || specRehashes == 0 || cloneRounds == 0 {
		t.Fatalf("sequences shadowed %d dead nodes, rehashed %d times while speculating and ran %d rounds on clones; want all three",
			shadowed, specRehashes, cloneRounds)
	}
}
