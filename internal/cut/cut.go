// Package cut computes k-feasible cuts of AIG nodes, their local truth
// tables, and reconvergence-driven cuts. It is the shared engine used by
// rewriting (4-input cuts), restructuring (8-input cuts), refactoring
// (10–12 input reconvergence cuts) and technology mapping, mirroring
// ABC's cut manager.
package cut

import (
	"fmt"
	"slices"

	"flowgen/internal/aig"
	"flowgen/internal/bitvec"
)

// MaxK is the widest cut Enumerate computes; its tables fit in four words.
const MaxK = 8

// Cut is a k-feasible cut of a node: a set of leaf nodes such that every
// path from a primary input to the node passes through a leaf. Its Set
// holds the node function over the leaves (leaf i is variable i). A Cut
// holds no pointers, so a Set of them is never scanned by the garbage
// collector.
type Cut struct {
	leaves [MaxK]int32 // node ids, sorted ascending, the first n in use
	sig    uint64      // leaf membership signature for fast dominance checks
	n      uint8       // leaf count
}

// Leaves returns the cut's leaf node ids, sorted ascending. The slice
// aliases the cut.
func (c *Cut) Leaves() []int32 { return c.leaves[:c.n] }

// dominates reports whether a's leaves are a subset of b's.
func dominates(a, b *Cut) bool {
	if a.n > b.n || a.sig&^b.sig != 0 {
		return false
	}
	i, j := uint8(0), uint8(0)
	for i < a.n && j < b.n {
		switch {
		case a.leaves[i] == b.leaves[j]:
			i++
			j++
		case a.leaves[i] > b.leaves[j]:
			j++
		default:
			return false
		}
	}
	return i == a.n
}

// merge sets the leaves and signature of c to the union of the sorted
// leaf lists of a and b, reporting false if the union exceeds k leaves.
func merge(c, a, b *Cut, k int) bool {
	x, y := a.Leaves(), b.Leaves()
	n := 0
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		var v int32
		switch {
		case i >= len(x):
			v = y[j]
			j++
		case j >= len(y):
			v = x[i]
			i++
		case x[i] < y[j]:
			v = x[i]
			i++
		case x[i] > y[j]:
			v = y[j]
			j++
		default:
			v = x[i]
			i++
			j++
		}
		if n == k {
			return false
		}
		c.leaves[n] = v
		n++
	}
	c.n, c.sig = uint8(n), a.sig|b.sig
	return true
}

// Set holds the enumerated cuts of every live node of a graph, all in
// one slice, node by node, and their truth tables in a second slice at
// the stride of K variables. Enumerate refills a Set in place, so a Set
// reused across graphs stops allocating once it has grown to the
// largest of them. The zero value is an empty Set.
type Set struct {
	K       int
	MaxCuts int

	cuts  []Cut
	tts   []uint64 // cut j's table: words j*nw to (j+1)*nw
	nw    int      // bitvec.WordsFor(K)
	first []int32  // per node: index in cuts of its first (trivial) cut
	count []int32  // per node: its number of cuts; 0 if it has none
	x0    [4]uint64
	walk  aig.Walker
}

// Of returns the cuts of node id, the first being the trivial cut {id}; a
// node that is not live has none. The slice aliases the Set and is
// valid until its next Enumerate.
func (s *Set) Of(id int) []Cut {
	f := s.first[id]
	return s.cuts[f : f+s.count[id]]
}

// TT returns the function of the root of cut i of node id (Of(id)[i])
// over its leaves, as a table over K variables that depends only on the
// first len(Leaves) of them. The table aliases the Set and is valid
// until its next Enumerate.
func (s *Set) TT(id, i int) bitvec.TT {
	if i >= int(s.count[id]) {
		panic(fmt.Sprintf("cut: node %d has no cut %d", id, i))
	}
	return bitvec.FromWords(s.K, s.words(int(s.first[id])+i))
}

// words returns the table words of cut j.
func (s *Set) words(j int) []uint64 { return s.tts[j*s.nw : (j+1)*s.nw : (j+1)*s.nw] }

// ensure gives a node without cuts (a PI or the constant) its trivial
// cut, on first use.
func (s *Set) ensure(id int) {
	if s.count[id] == 0 {
		s.first[id], s.count[id] = int32(len(s.cuts)), 1
		s.addTrivial(id)
	}
}

// addTrivial appends the cut {id}, whose function is variable 0.
func (s *Set) addTrivial(id int) {
	c := Cut{n: 1, sig: 1 << (uint(id) & 63)}
	c.leaves[0] = int32(id)
	s.cuts = append(s.cuts, c)
	s.tts = append(s.tts, s.x0[:s.nw]...)
}

// Enumerate computes up to maxCuts k-feasible cuts (with truth tables)
// for every live AND node of g into s, for k <= MaxK, replacing what s
// held. Each node also receives its trivial cut {node}. Dominated cuts
// are pruned.
func (s *Set) Enumerate(g *aig.AIG, k, maxCuts int) {
	if k < 1 || k > MaxK {
		panic(fmt.Sprintf("cut: k=%d out of range [1,%d]", k, MaxK))
	}
	n := g.NumNodesRaw()
	nw := bitvec.WordsFor(k)
	s.K, s.MaxCuts, s.nw = k, maxCuts, nw
	live := s.walk.LiveAnds(g)
	// At most maxCuts cuts per live AND node and one per input or
	// constant: reserving that once spares a fresh Set growing cut by
	// cut.
	most := maxCuts*len(live) + g.NumPIs() + 1
	s.cuts = slices.Grow(s.cuts[:0], most)
	s.tts = slices.Grow(s.tts[:0], most*nw)
	s.first = slices.Grow(s.first[:0], n)[:n]
	s.count = slices.Grow(s.count[:0], n)[:n]
	clear(s.count)
	bitvec.FillVar(s.x0[:nw], k, 0)
	mask := bitvec.WordMask(k)
	var (
		pos    [MaxK]int
		t0, t1 [4]uint64 // WordsFor(MaxK)
	)
	for _, id32 := range live {
		id := int(id32)
		f0, f1 := g.Fanin0(id), g.Fanin1(id)
		s.ensure(f0.Node())
		s.ensure(f1.Node())
		// The node's cuts are built in place at the end of s.cuts.
		start := len(s.cuts)
		s.addTrivial(id)
		i0, n0 := int(s.first[f0.Node()]), int(s.count[f0.Node()])
		i1, n1 := int(s.first[f1.Node()]), int(s.count[f1.Node()])
		for i := i0; i < i0+n0; i++ {
			for j := i1; j < i1+n1; j++ {
				c0, c1 := &s.cuts[i], &s.cuts[j]
				var nc Cut
				if !merge(&nc, c0, c1, k) || dominated(s.cuts[start:], &nc) {
					continue
				}
				lift(t0[:nw], s.words(i), c0, &nc, pos[:], k, f0.IsNeg())
				lift(t1[:nw], s.words(j), c1, &nc, pos[:], k, f1.IsNeg())
				for w := range nw {
					t0[w] &= t1[w] & mask
				}
				s.add(start, &nc, t0[:nw])
				if len(s.cuts)-start >= maxCuts {
					break
				}
			}
			if len(s.cuts)-start >= maxCuts {
				break
			}
		}
		s.first[id], s.count[id] = int32(start), int32(len(s.cuts)-start)
	}
}

// lift writes the function of child, whose table is tt, over the leaves
// of merged into dst, complemented when neg is set. Cut functions are
// stored over k variables but depend only on the first len(Leaves) of
// them, so lifting moves variable i to the position of child's leaf i
// among merged's (both are sorted, so the positions increase). pos is
// scratch.
func lift(dst, tt []uint64, child, merged *Cut, pos []int, k int, neg bool) {
	copy(dst, tt)
	p := pos[:child.n]
	j := 0
	for i, l := range child.Leaves() {
		for merged.leaves[j] != l {
			j++
		}
		p[i] = j
	}
	bitvec.Stretch(dst, k, p)
	if neg {
		for w := range dst {
			dst[w] = ^dst[w]
		}
	}
}

// dominated reports whether a cut of set dominates nc.
func dominated(set []Cut, nc *Cut) bool {
	for i := range set {
		if dominates(&set[i], nc) {
			return true
		}
	}
	return false
}

// add appends nc, whose table is tt, to the cuts of the node being
// enumerated, s.cuts[start:], after removing the cuts nc dominates; the
// others keep their order.
func (s *Set) add(start int, nc *Cut, tt []uint64) {
	kept := start
	for i := start; i < len(s.cuts); i++ {
		if !dominates(nc, &s.cuts[i]) {
			if kept < i {
				s.cuts[kept] = s.cuts[i]
				copy(s.words(kept), s.words(i))
			}
			kept++
		}
	}
	s.cuts = append(s.cuts[:kept], *nc)
	s.tts = append(s.tts[:kept*s.nw], tt...)
}

// Cones computes reconvergence-driven cuts and cone truth tables of one
// graph with reusable scratch: per-node marks stamped with a call epoch
// instead of maps, and one word buffer for all tables of a cone. Once its
// buffers have grown, no call allocates. Results alias the scratch and
// are valid until the next call. The graph may gain nodes between calls
// (refactoring adds them) but must not be renumbered.
type Cones struct {
	g      *aig.AIG
	stamp  []uint32 // per node: epoch of the call that marked it a leaf or inside the cone
	slot   []int32  // per node: index of its table in words (TT)
	epoch  uint32
	cut    []cutLeaf // ReconvCut's leaves, sorted by id
	leaves []int
	order  []int
	words  []uint64
}

// cutLeaf is a leaf of the cut ReconvCut grows, with its resolved fanin
// nodes; f0 is -1 for an input or the constant, which cannot expand.
type cutLeaf struct{ id, f0, f1 int32 }

// NewCones returns a cone workspace for g.
func NewCones(g *aig.AIG) *Cones { return &Cones{g: g} }

// Reset points the workspace at g, keeping its buffers: nothing marked
// on the previous graph reads as set.
func (c *Cones) Reset(g *aig.AIG) { c.g = g }

// begin starts a call: no node reads as marked.
func (c *Cones) begin() {
	if n := c.g.NumNodesRaw(); n > len(c.stamp) {
		c.stamp = append(c.stamp, make([]uint32, n-len(c.stamp))...)
		c.slot = append(c.slot, make([]int32, n-len(c.slot))...)
	}
	c.epoch++
	if c.epoch == 0 {
		clear(c.stamp)
		c.epoch = 1
	}
}

// marked reports whether this call has made id a leaf or put it inside
// the cone.
func (c *Cones) marked(id int) bool { return c.stamp[id] == c.epoch }

func (c *Cones) mark(id int) { c.stamp[id] = c.epoch }

// ReconvCut grows a reconvergence-driven cut of root with at most k
// leaves, in the style of ABC's reconvergence-driven cut computation:
// starting from the fanins of root, it repeatedly expands the leaf whose
// expansion increases the leaf count the least (preferring reconvergent
// expansions that shrink the cut). The leaves are sorted ascending.
func (c *Cones) ReconvCut(root int, k int) []int {
	g := c.g
	c.leaves = c.leaves[:0]
	if !g.IsAnd(root) {
		return append(c.leaves, root)
	}
	c.begin()
	c.mark(root)
	c.cut = c.cut[:0]
	c.addLeaf(g.Fanin0(root).Node())
	c.addLeaf(g.Fanin1(root).Node())
	for {
		// Candidates in ascending node-id order, so ties go to the
		// lowest id, and none beats a cost of -1. Expanding a leaf
		// removes it and adds its fanins that are not yet marked.
		best, bestCost := -1, 3
		for i, l := range c.cut {
			if l.f0 < 0 {
				continue
			}
			cost := -1
			if !c.marked(int(l.f0)) {
				cost++
			}
			if !c.marked(int(l.f1)) {
				cost++
			}
			if cost < bestCost {
				best, bestCost = i, cost
				if cost < 0 {
					break
				}
			}
		}
		if best < 0 || len(c.cut)+bestCost > k {
			break
		}
		// The expanded leaf stays marked: it is inside the cone now.
		l := c.cut[best]
		c.cut = append(c.cut[:best], c.cut[best+1:]...)
		c.addLeaf(int(l.f0))
		c.addLeaf(int(l.f1))
	}
	for _, l := range c.cut {
		c.leaves = append(c.leaves, int(l.id))
	}
	return c.leaves
}

// addLeaf inserts id into the sorted cut unless it is already marked,
// reading its resolved fanins once: the graph does not change during a
// call, so they hold until the leaf is expanded.
func (c *Cones) addLeaf(id int) {
	if c.marked(id) {
		return
	}
	c.mark(id)
	l := cutLeaf{int32(id), -1, -1}
	if c.g.IsAnd(id) {
		l.f0, l.f1 = int32(c.g.Fanin0(id).Node()), int32(c.g.Fanin1(id).Node())
	}
	c.cut = append(c.cut, l)
	i := len(c.cut) - 1
	for ; i > 0 && c.cut[i-1].id > l.id; i-- {
		c.cut[i] = c.cut[i-1]
	}
	c.cut[i] = l
}

// Nodes returns the interior AND nodes of the cone of root bounded by
// leaves, in topological order (root last). Returns nil if the cone is
// not bounded by the leaves (should not happen for valid cuts).
func (c *Cones) Nodes(root int, leaves []int) []int {
	c.begin()
	for _, l := range leaves {
		c.mark(l)
	}
	c.order = c.order[:0]
	if !c.visit(root) || len(c.order) == 0 {
		return nil
	}
	return c.order
}

func (c *Cones) visit(id int) bool {
	if c.marked(id) {
		return true
	}
	if !c.g.IsAnd(id) {
		return false // hit a PI that is not a leaf: unbounded
	}
	c.mark(id)
	if !c.visit(c.g.Fanin0(id).Node()) || !c.visit(c.g.Fanin1(id).Node()) {
		return false
	}
	c.order = append(c.order, id)
	return true
}

// TT computes the truth table of root (positive literal) over the cut
// leaves: leaf i is variable i. The cone must be bounded by the leaves.
// Returns the table and true, or a zero table and false if unbounded.
func (c *Cones) TT(root int, leaves []int) (bitvec.TT, bool) {
	interior := c.Nodes(root, leaves)
	if interior == nil {
		return bitvec.TT{}, false
	}
	g := c.g
	k := len(leaves)
	nw := bitvec.WordsFor(k)
	mask := bitvec.WordMask(k)
	c.words = slices.Grow(c.words[:0], (k+len(interior))*nw)[:(k+len(interior))*nw]
	table := func(i int) []uint64 { return c.words[i*nw : (i+1)*nw] }
	for i, l := range leaves {
		c.slot[l] = int32(i)
		bitvec.FillVar(table(i), k, i)
	}
	for j, id := range interior {
		c.slot[id] = int32(k + j)
		f0, f1 := g.Fanin0(id), g.Fanin1(id)
		a, b, dst := table(int(c.slot[f0.Node()])), table(int(c.slot[f1.Node()])), table(k+j)
		var na, nb uint64
		if f0.IsNeg() {
			na = ^uint64(0)
		}
		if f1.IsNeg() {
			nb = ^uint64(0)
		}
		for w := range dst {
			dst[w] = (a[w] ^ na) & (b[w] ^ nb) & mask
		}
	}
	return bitvec.FromWords(k, table(int(c.slot[root]))), true
}
