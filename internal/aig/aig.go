// Package aig implements And-Inverter Graphs (AIGs), the logic
// representation used by the synthesis transformations in this repository.
// It plays the role of ABC's AIG manager: structural hashing, complemented
// edges, reference counting, MFFC (maximum fanout-free cone) measurement,
// and in-place node replacement with literal indirection, which is the
// mechanism DAG-aware rewriting is built on.
//
// Literals follow the standard convention: Lit = 2*node + phase. Node 0 is
// the constant-false node, so Lit 0 is constant false and Lit 1 constant
// true. Primary inputs and AND nodes occupy subsequent ids.
package aig

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
)

// Lit is a literal: a node index with a complementation bit in the LSB.
type Lit uint32

// ConstFalse and ConstTrue are the constant literals.
const (
	ConstFalse Lit = 0
	ConstTrue  Lit = 1
)

// MakeLit builds a literal from a node id and a complement flag.
func MakeLit(node int, neg bool) Lit {
	l := Lit(node << 1)
	if neg {
		l |= 1
	}
	return l
}

// Node returns the node id of the literal.
func (l Lit) Node() int { return int(l >> 1) }

// IsNeg reports whether the literal is complemented.
func (l Lit) IsNeg() bool { return l&1 != 0 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf returns the literal complemented iff c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// Kind classifies AIG nodes.
type Kind uint8

const (
	// KindConst is the constant-false node (always node 0).
	KindConst Kind = iota
	// KindInput is a primary input.
	KindInput
	// KindAnd is a two-input AND node.
	KindAnd
)

type node struct {
	f0, f1 Lit // fanins, meaningful for KindAnd; f0 <= f1 by construction
	kind   Kind
	level  int32
	ref    int32
	next   int32 // next AND node in this node's structural-hash chain; 0 ends it
}

// AIG is a mutable and-inverter graph. The zero value is not usable;
// construct with New.
type AIG struct {
	nodes   []node
	pis     []int // node ids of primary inputs, in declaration order
	pos     []Lit // primary output literals
	piNames []string
	poNames []string
	// bins heads the structural-hash chains: every AND node is linked,
	// through node.next, into the chain of its fanin pair's bin, newest
	// node first. The constant node 0 is never linked, so 0 marks an
	// empty bin and a chain's end. len(bins) is a power of two.
	bins []int32
	repl []Lit // repl[i] != invalidLit means node i was replaced
	// counted reports that every node's ref and level equal what
	// RecomputeRefs and RecomputeLevels would compute, so both return
	// at once. Cleanup sets it, Clone copies it, and every method that
	// can change a reference count, a level or the outputs clears it (a
	// new input, unreferenced at level 0, is what a recount gives).
	counted bool

	// Speculation support (see BeginSpeculate).
	// Speculation maintains the invariant that a pre-speculation AND node
	// has its cone's fanin edges counted iff its own ref is positive.
	// Resurrection (re-referencing a dead node's cone when it gains an
	// edge) and the symmetric release on abort both follow from it.
	speculating bool
	specMark    int
	resurrected int
	touchNode   int // node holding the virtual candidate-output ref, or -1
}

const invalidLit = Lit(^uint32(0))

// New returns an empty AIG containing only the constant node.
func New() *AIG { return NewSized(1024) }

// NewSized returns an empty AIG with room for n nodes (the constant
// included) and structural-hash bins for as many, for callers that know
// the size of their result.
func NewSized(n int) *AIG {
	n = max(n, 1)
	g := &AIG{
		nodes: make([]node, 1, n),
		bins:  make([]int32, binsFor(n)),
		repl:  make([]Lit, 1, n),
	}
	g.nodes[0] = node{kind: KindConst}
	g.repl[0] = invalidLit
	return g
}

// binsFor returns the bin count for n nodes: the smallest power of two
// that is at least n, and at least 16.
func binsFor(n int) int { return 1 << max(bits.Len(uint(n-1)), 4) }

// bin returns the structural-hash bin of the fanin pair (a, b): the top
// bits of a multiplicative hash of the pair.
func (g *AIG) bin(a, b Lit) int {
	h := (uint64(a)<<32 | uint64(b)) * 0x9e3779b97f4a7c15
	return int(h >> (bits.LeadingZeros64(uint64(len(g.bins))) + 1))
}

// rehash doubles the bins and relinks every AND node in ascending id
// order, so each chain stays newest first.
func (g *AIG) rehash() {
	g.bins = make([]int32, 2*len(g.bins))
	for id := range g.nodes {
		n := &g.nodes[id]
		if n.kind != KindAnd {
			continue
		}
		b := g.bin(n.f0, n.f1)
		n.next, g.bins[b] = g.bins[b], int32(id)
	}
}

// AddInput appends a primary input with the given name and returns its
// positive literal.
func (g *AIG) AddInput(name string) Lit {
	id := len(g.nodes)
	g.nodes = append(g.nodes, node{kind: KindInput})
	g.repl = append(g.repl, invalidLit)
	g.pis = append(g.pis, id)
	g.piNames = append(g.piNames, name)
	return MakeLit(id, false)
}

// AddOutput declares lit as a primary output with the given name.
func (g *AIG) AddOutput(lit Lit, name string) {
	g.counted = false
	lit = g.Resolve(lit)
	g.pos = append(g.pos, lit)
	g.poNames = append(g.poNames, name)
	g.addRef(lit.Node())
}

// NumPIs returns the number of primary inputs.
func (g *AIG) NumPIs() int { return len(g.pis) }

// NumPOs returns the number of primary outputs.
func (g *AIG) NumPOs() int { return len(g.pos) }

// PI returns the literal of the i-th primary input.
func (g *AIG) PI(i int) Lit { return MakeLit(g.pis[i], false) }

// PIName returns the name of the i-th primary input.
func (g *AIG) PIName(i int) string { return g.piNames[i] }

// PO returns the (resolved) literal driving the i-th primary output.
func (g *AIG) PO(i int) Lit { return g.Resolve(g.pos[i]) }

// POName returns the name of the i-th primary output.
func (g *AIG) POName(i int) string { return g.poNames[i] }

// NumNodesRaw returns the raw length of the node array, including nodes
// that died through replacement. Use NumAnds for the live AND count.
func (g *AIG) NumNodesRaw() int { return len(g.nodes) }

// Kind returns the kind of the given node.
func (g *AIG) Kind(id int) Kind { return g.nodes[id].kind }

// IsAnd reports whether node id is an AND node.
func (g *AIG) IsAnd(id int) bool { return g.nodes[id].kind == KindAnd }

// Ref returns the current reference count of a node.
func (g *AIG) Ref(id int) int { return int(g.nodes[id].ref) }

// Resolve follows replacement indirections, with path compression, and
// returns the canonical literal equal to l. The check for a node that
// was never replaced, by far the common case, is small enough to inline.
func (g *AIG) Resolve(l Lit) Lit {
	if g.repl[l.Node()] == invalidLit {
		return l
	}
	return g.resolveChain(l)
}

// resolveChain is Resolve for a replaced node: it follows the chain and
// compresses it.
func (g *AIG) resolveChain(l Lit) Lit {
	root := g.repl[l.Node()].NotIf(l.IsNeg())
	final := g.Resolve(root)
	// Path compression: repl entries always map the positive literal.
	g.repl[l.Node()] = final.NotIf(l.IsNeg())
	return final
}

// Fanin0 returns the resolved first fanin of an AND node.
func (g *AIG) Fanin0(id int) Lit { return g.Resolve(g.nodes[id].f0) }

// Fanin1 returns the resolved second fanin of an AND node.
func (g *AIG) Fanin1(id int) Lit { return g.Resolve(g.nodes[id].f1) }

func (g *AIG) addRef(id int) { g.nodes[id].ref++ }

// useFanin resurrects a dead pre-speculation fanin and immediately counts
// the new edge, keeping resurrection atomic with the reference.
func (g *AIG) useFanin(id int) {
	g.resurrectIfDead(id)
	g.addRef(id)
}

// And returns a literal for the conjunction of a and b, applying constant
// propagation, trivial-case simplification and structural hashing.
func (g *AIG) And(a, b Lit) Lit {
	a, b = g.Resolve(a), g.Resolve(b)
	// Trivial cases.
	if a == ConstFalse || b == ConstFalse {
		return ConstFalse
	}
	if a == ConstTrue {
		return b
	}
	if b == ConstTrue {
		return a
	}
	if a == b {
		return a
	}
	if a == b.Not() {
		return ConstFalse
	}
	if a > b {
		a, b = b, a
	}
	// The first node of the chain with these fanins is the newest one, the
	// only one a lookup may return.
	bin := g.bin(a, b)
	for id := g.bins[bin]; id != 0; id = g.nodes[id].next {
		if n := &g.nodes[id]; n.f0 == a && n.f1 == b {
			if n.ref > 0 || !g.speculating {
				return MakeLit(int(id), false)
			}
			// During speculation dead nodes are not reused (their cones
			// have been dereferenced); the new node shadows this one.
			break
		}
	}
	g.counted = false
	id := len(g.nodes)
	lvl := g.nodes[a.Node()].level
	if l1 := g.nodes[b.Node()].level; l1 > lvl {
		lvl = l1
	}
	// During speculation, using a dead pre-speculation node as a fanin
	// resurrects it: its internal cone edges must be re-added so that
	// reference counts stay exact (cut leaves may lie inside the MFFC that
	// BeginSpeculate dereferenced). Resurrection and the new edge must be
	// applied atomically per fanin: if b's cone contains a, the a-edge
	// must already be counted when b's cone is re-referenced, or a's cone
	// would be attached twice.
	g.useFanin(a.Node())
	g.useFanin(b.Node())
	g.nodes = append(g.nodes, node{f0: a, f1: b, kind: KindAnd, level: lvl + 1, next: g.bins[bin]})
	g.repl = append(g.repl, invalidLit)
	g.bins[bin] = int32(id)
	if len(g.nodes) > 2*len(g.bins) {
		g.rehash()
	}
	return MakeLit(id, false)
}

// Or returns a literal for the disjunction of a and b.
func (g *AIG) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a literal for the exclusive-or of a and b.
func (g *AIG) Xor(a, b Lit) Lit {
	// a^b = (a & ~b) | (~a & b)
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Mux returns s ? a : b.
func (g *AIG) Mux(s, a, b Lit) Lit {
	return g.Or(g.And(s, a), g.And(s.Not(), b))
}

// Maj returns the majority of three literals.
func (g *AIG) Maj(a, b, c Lit) Lit {
	return g.Or(g.And(a, b), g.Or(g.And(a, c), g.And(b, c)))
}

// NumAnds returns the number of live AND nodes reachable from the outputs.
func (g *AIG) NumAnds() int {
	n := 0
	g.ForEachLiveAnd(func(int) { n++ })
	return n
}

// ForEachLiveAnd calls fn for every AND node reachable from the primary
// outputs, in topological order (fanins before fanouts).
func (g *AIG) ForEachLiveAnd(fn func(id int)) {
	g.walkLive(make([]bool, len(g.nodes)), fn)
}

// Walker lists the live AND nodes of graphs in ForEachLiveAnd's order on
// memory it keeps: once grown to a graph's size, it does not allocate.
// The zero value is ready to use.
type Walker struct {
	seen []bool
	ids  []int32
}

// LiveAnds returns the ids of g's live AND nodes in topological order.
// The slice is overwritten by the Walker's next call.
func (w *Walker) LiveAnds(g *AIG) []int32 {
	w.seen = slices.Grow(w.seen[:0], len(g.nodes))[:len(g.nodes)]
	clear(w.seen)
	w.ids = w.ids[:0]
	g.walkLive(w.seen, func(id int) { w.ids = append(w.ids, int32(id)) })
	return w.ids
}

// walkLive is ForEachLiveAnd marking visited nodes in seen, which holds
// one false entry per node.
func (g *AIG) walkLive(seen []bool, fn func(id int)) {
	var visit func(id int)
	visit = func(id int) {
		if seen[id] {
			return
		}
		seen[id] = true
		n := &g.nodes[id]
		if n.kind != KindAnd {
			return
		}
		visit(g.Fanin0(id).Node())
		visit(g.Fanin1(id).Node())
		fn(id)
	}
	for i := range g.pos {
		visit(g.PO(i).Node())
	}
}

// LiveAnds returns the ids of live AND nodes in topological order.
func (g *AIG) LiveAnds() []int {
	var ids []int
	g.ForEachLiveAnd(func(id int) { ids = append(ids, id) })
	return ids
}

// RecomputeLevels recalculates node levels (PI level 0; AND level =
// 1 + max(fanin levels)) over the live graph and returns the maximum
// output level, i.e. the logic depth. On a graph that carries its
// counts (see Cleanup) the levels are already these and only the depth
// is read.
func (g *AIG) RecomputeLevels() int {
	if !g.counted {
		for i := range g.nodes {
			g.nodes[i].level = 0
		}
		g.ForEachLiveAnd(func(id int) {
			l0 := g.nodes[g.Fanin0(id).Node()].level
			l1 := g.nodes[g.Fanin1(id).Node()].level
			if l1 > l0 {
				l0 = l1
			}
			g.nodes[id].level = l0 + 1
		})
	}
	max := int32(0)
	for i := range g.pos {
		if l := g.nodes[g.PO(i).Node()].level; l > max {
			max = l
		}
	}
	return int(max)
}

// Level returns the stored level of a node (valid after RecomputeLevels or
// as maintained incrementally during construction).
func (g *AIG) Level(id int) int { return int(g.nodes[id].level) }

// RecomputeRefs recalculates reference counts: one per AND fanin edge plus
// one per primary output, counting only live logic. A graph that carries
// its counts (see Cleanup) already holds these and is left alone.
func (g *AIG) RecomputeRefs() {
	if g.counted {
		return
	}
	for i := range g.nodes {
		g.nodes[i].ref = 0
	}
	g.ForEachLiveAnd(func(id int) {
		g.nodes[g.Fanin0(id).Node()].ref++
		g.nodes[g.Fanin1(id).Node()].ref++
	})
	for i := range g.pos {
		g.nodes[g.PO(i).Node()].ref++
	}
}

// RecursiveDeref removes one cone reference: for each fanin of id, the
// count is decremented, recursing when an AND fanin dies. It returns the
// number of AND nodes (including id itself) that are freed if id dies.
// The caller is responsible for the symmetric RecursiveRef if the cone is
// to be restored.
func (g *AIG) RecursiveDeref(id int) int {
	g.counted = false
	return g.deref(id)
}

// deref is RecursiveDeref on a graph whose counts are already marked
// stale.
func (g *AIG) deref(id int) int {
	if g.nodes[id].kind != KindAnd {
		return 0
	}
	count := 1
	for _, f := range [2]Lit{g.Fanin0(id), g.Fanin1(id)} {
		fn := f.Node()
		g.nodes[fn].ref--
		if g.nodes[fn].ref == 0 && g.nodes[fn].kind == KindAnd {
			count += g.deref(fn)
		}
	}
	return count
}

// RecursiveRef is the inverse of RecursiveDeref.
func (g *AIG) RecursiveRef(id int) int {
	g.counted = false
	return g.ref(id)
}

// ref is RecursiveRef on a graph whose counts are already marked stale.
func (g *AIG) ref(id int) int {
	if g.nodes[id].kind != KindAnd {
		return 0
	}
	count := 1
	for _, f := range [2]Lit{g.Fanin0(id), g.Fanin1(id)} {
		fn := f.Node()
		if g.nodes[fn].ref == 0 && g.nodes[fn].kind == KindAnd {
			count += g.ref(fn)
		}
		g.nodes[fn].ref++
	}
	return count
}

// MFFCSize returns the size of the maximum fanout-free cone of id: the
// number of AND nodes that die if id is replaced. Non-destructive.
func (g *AIG) MFFCSize(id int) int {
	n := g.RecursiveDeref(id)
	m := g.RecursiveRef(id)
	if n != m {
		panic(fmt.Sprintf("aig: MFFC deref/ref mismatch %d vs %d", n, m))
	}
	return n
}

// resurrectIfDead re-references the cone of a dead pre-speculation AND
// node that is about to gain a fanout, tracking how many nodes came back
// so that speculation gain accounting stays exact.
func (g *AIG) resurrectIfDead(id int) {
	if !g.speculating || id >= g.specMark {
		return
	}
	n := &g.nodes[id]
	if n.kind != KindAnd || n.ref != 0 {
		return
	}
	g.resurrected += g.ref(id)
}

// Touch declares lit as the candidate replacement output: its cone is
// resurrected if dead and a virtual reference pins it alive so that gain
// accounting is exact. Call once per candidate, before reading
// SpeculationGain; CommitSpeculate, RollbackSpeculate and AbortSpeculate
// release the pin.
func (g *AIG) Touch(l Lit) {
	if !g.speculating {
		panic("aig: Touch outside speculation")
	}
	if g.touchNode >= 0 {
		panic("aig: double Touch of one candidate")
	}
	id := g.Resolve(l).Node()
	g.resurrectIfDead(id)
	g.nodes[id].ref++
	g.touchNode = id
}

// releaseTouch removes the virtual candidate-output reference.
func (g *AIG) releaseTouch() {
	if g.touchNode < 0 {
		return
	}
	id := g.touchNode
	g.touchNode = -1
	g.nodes[id].ref--
	if g.nodes[id].ref == 0 && id < g.specMark && g.nodes[id].kind == KindAnd {
		g.deref(id)
	}
}

// BeginSpeculate enters speculation mode: the MFFC of root is
// dereferenced, and subsequent And calls will not reuse dead nodes. It
// returns the number of nodes freed by removing root's cone. The graph's
// counts are stale from here on: the speculation methods below run only
// inside a speculation, so none of them needs to mark them again.
func (g *AIG) BeginSpeculate(root int) int {
	if g.speculating {
		panic("aig: nested speculation")
	}
	g.counted = false
	g.speculating = true
	g.specMark = len(g.nodes)
	g.resurrected = 0
	g.touchNode = -1
	return g.deref(root)
}

// SpeculationGain returns the exact node-count gain of committing the
// current candidate: nodes freed by removing root's cone, minus its
// SpeculationCost. freed is the value returned by BeginSpeculate. Call
// Touch on the candidate literal first.
func (g *AIG) SpeculationGain(freed int) int {
	return freed - g.SpeculationCost()
}

// SpeculationCost returns what the current candidate has cost so far:
// the nodes it created plus the dead nodes it resurrected. Building only
// appends nodes and resurrects, so the cost never falls while a
// candidate is built, and freed minus the cost bounds the candidate's
// final SpeculationGain from above.
func (g *AIG) SpeculationCost() int { return g.SpeculativeCreated() + g.resurrected }

// CommitSpeculate replaces root with newLit: all logical fanouts of root
// are redirected, reference counts are transferred, and speculation mode
// ends. newLit must not be a literal of root itself.
func (g *AIG) CommitSpeculate(root int, newLit Lit) {
	if !g.speculating {
		panic("aig: CommitSpeculate outside speculation")
	}
	newLit = g.Resolve(newLit)
	if newLit.Node() == root {
		panic("aig: self-replacement")
	}
	g.resurrectIfDead(newLit.Node())
	g.nodes[newLit.Node()].ref += g.nodes[root].ref
	g.nodes[root].ref = 0
	g.repl[root] = newLit
	g.releaseTouch()
	g.speculating = false
	g.resurrected = 0
}

// AbortSpeculate rejects the candidate built since BeginSpeculate and
// ends speculation: the candidate is rolled back and root's cone is
// re-referenced.
func (g *AIG) AbortSpeculate(root int) {
	if !g.speculating {
		panic("aig: AbortSpeculate outside speculation")
	}
	g.RollbackSpeculate()
	g.speculating = false
	g.ref(root)
}

// RollbackSpeculate drops the candidate built since BeginSpeculate but
// stays in speculation, with root's cone still dereferenced, so the next
// candidate for the same root starts from the state BeginSpeculate left.
// Speculative nodes are unhashed and truncated and the touch is
// released.
func (g *AIG) RollbackSpeculate() {
	if !g.speculating {
		panic("aig: RollbackSpeculate outside speculation")
	}
	g.releaseTouch()
	// Drop speculative nodes newest first, removing the references they
	// added. Each one heads its hash chain when it is dropped, so
	// unlinking it uncovers the node it shadowed, if any. When a
	// resurrected pre-speculation fanin loses its last reference, its
	// cone dies with it (ref>0 iff cone attached).
	for id := len(g.nodes) - 1; id >= g.specMark; id-- {
		n := g.nodes[id]
		g.bins[g.bin(n.f0, n.f1)] = n.next
		for _, f := range [2]Lit{n.f0, n.f1} {
			fn := f.Node()
			g.nodes[fn].ref--
			if g.nodes[fn].ref == 0 && fn < g.specMark && g.nodes[fn].kind == KindAnd {
				g.deref(fn)
			}
		}
	}
	g.nodes = g.nodes[:g.specMark]
	g.repl = g.repl[:g.specMark]
	g.resurrected = 0
}

// SpeculativeCreated returns the number of nodes the current candidate
// created: since BeginSpeculate, or since the last RollbackSpeculate.
func (g *AIG) SpeculativeCreated() int { return len(g.nodes) - g.specMark }

// Cleanup returns a compacted copy of the graph containing only live
// logic, with fresh structural hashing. Primary input/output order and
// names are preserved. The copy reserves as many nodes as g holds, an
// upper bound on what it keeps.
//
// The copy carries its reference counts and levels (RecomputeRefs and
// RecomputeLevels return at once on it). And and AddOutput count them
// as the copy is built, and when every AND node of the copy has a
// fanout, every AND node is live and those counts are exactly what a
// recount over live logic gives. Structural hashing and constant
// propagation can leave a mapped node without a fanout (a fanout that
// became a trivial AND), and only then are both recounted.
func (g *AIG) Cleanup() *AIG {
	ng := NewSized(len(g.nodes))
	m := make([]Lit, len(g.nodes))
	for i := range m {
		m[i] = invalidLit
	}
	m[0] = ConstFalse
	for i, pi := range g.pis {
		m[pi] = ng.AddInput(g.piNames[i])
	}
	mapLit := func(l Lit) Lit {
		ml := m[l.Node()]
		return ml.NotIf(l.IsNeg())
	}
	g.ForEachLiveAnd(func(id int) {
		m[id] = ng.And(mapLit(g.Fanin0(id)), mapLit(g.Fanin1(id)))
	})
	for i := range g.pos {
		ng.AddOutput(mapLit(g.PO(i)), g.poNames[i])
	}
	for i := range ng.nodes {
		if n := &ng.nodes[i]; n.kind == KindAnd && n.ref == 0 {
			ng.RecomputeLevels()
			ng.RecomputeRefs()
			break
		}
	}
	ng.counted = true
	return ng
}

// Stats summarizes graph size.
type Stats struct {
	PIs, POs, Ands, Levels int
}

// Stats returns the live statistics of the graph.
func (g *AIG) Stats() Stats {
	return Stats{
		PIs:    len(g.pis),
		POs:    len(g.pos),
		Ands:   g.NumAnds(),
		Levels: g.RecomputeLevels(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("pi=%d po=%d and=%d lev=%d", s.PIs, s.POs, s.Ands, s.Levels)
}

// SimulateNodes evaluates the live graph on 64-bit-parallel input
// patterns: patterns[i] holds the words of primary input i, all of one
// length nwords. The result is node-major: node id's words are
// [id*nwords, (id+1)*nwords). The constant node and dead nodes read 0.
func (g *AIG) SimulateNodes(patterns [][]uint64) []uint64 {
	if len(patterns) != len(g.pis) {
		panic("aig: pattern count != PI count")
	}
	nw := 0
	if len(patterns) > 0 {
		nw = len(patterns[0])
	}
	val := make([]uint64, len(g.nodes)*nw)
	for i, pi := range g.pis {
		if len(patterns[i]) != nw {
			panic("aig: ragged patterns")
		}
		copy(val[pi*nw:], patterns[i])
	}
	g.ForEachLiveAnd(func(id int) {
		f0, f1 := g.Fanin0(id), g.Fanin1(id)
		a, b := val[f0.Node()*nw:][:nw], val[f1.Node()*nw:][:nw]
		m0, m1 := -uint64(f0&1), -uint64(f1&1)
		out := val[id*nw:][:nw]
		for w := range out {
			out[w] = (a[w] ^ m0) & (b[w] ^ m1)
		}
	})
	return val
}

// appendLitWords appends the nw words of literal l, read from the
// node-major values of SimulateNodes, to dst.
func appendLitWords(dst, val []uint64, nw int, l Lit) []uint64 {
	m := -uint64(l & 1)
	for _, w := range val[l.Node()*nw:][:nw] {
		dst = append(dst, w^m)
	}
	return dst
}

// Simulate evaluates the graph on 64-bit-parallel input patterns.
// patterns[i] holds nwords words for primary input i. The result holds
// nwords words per primary output.
func (g *AIG) Simulate(patterns [][]uint64) [][]uint64 {
	val := g.SimulateNodes(patterns)
	nw := len(val) / len(g.nodes)
	res := make([][]uint64, len(g.pos))
	for i := range g.pos {
		res[i] = appendLitWords(make([]uint64, 0, nw), val, nw, g.PO(i))
	}
	return res
}

// EvalUint evaluates the graph on a single assignment given as big-endian
// bit slices per input word grouping. inputs[i] is the boolean value of
// primary input i. Returns one boolean per primary output.
func (g *AIG) EvalUint(inputs []bool) []bool {
	if len(inputs) != len(g.pis) {
		panic("aig: input count mismatch")
	}
	pats := make([][]uint64, len(inputs))
	for i, b := range inputs {
		w := uint64(0)
		if b {
			w = 1
		}
		pats[i] = []uint64{w}
	}
	out := g.Simulate(pats)
	res := make([]bool, len(out))
	for i, o := range out {
		res[i] = o[0]&1 != 0
	}
	return res
}

// RandomPatterns draws nwords random words for each of npis primary
// inputs, input by input, from a generator seeded by seed: the patterns
// SimSignature simulates.
func RandomPatterns(seed int64, npis, nwords int) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	pats := make([][]uint64, npis)
	for i := range pats {
		pats[i] = make([]uint64, nwords)
		for w := range pats[i] {
			pats[i][w] = rng.Uint64()
		}
	}
	return pats
}

// SimSignature returns a deterministic simulation signature over nwords
// random 64-bit patterns seeded by seed. Two graphs with identical PI/PO
// counts and equal signatures are (with overwhelming probability)
// functionally equivalent; unequal signatures prove inequivalence.
func (g *AIG) SimSignature(seed int64, nwords int) []uint64 {
	val := g.SimulateNodes(RandomPatterns(seed, len(g.pis), nwords))
	nw := len(val) / len(g.nodes)
	sig := make([]uint64, 0, len(g.pos)*nw)
	for i := range g.pos {
		sig = appendLitWords(sig, val, nw, g.PO(i))
	}
	return sig
}

// SigEqual compares two signatures.
func SigEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TFISorted returns the transitive fanin cone node ids of root (including
// root, excluding constants), sorted ascending. Used by tests.
func (g *AIG) TFISorted(root int) []int {
	seen := map[int]bool{}
	var visit func(id int)
	visit = func(id int) {
		if seen[id] || id == 0 {
			return
		}
		seen[id] = true
		if g.nodes[id].kind == KindAnd {
			visit(g.Fanin0(id).Node())
			visit(g.Fanin1(id).Node())
		}
	}
	visit(root)
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
