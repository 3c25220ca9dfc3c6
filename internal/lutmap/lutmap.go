// Package lutmap implements k-LUT technology mapping for FPGA targets
// (ABC's `if` command family): cut-based covering that minimizes depth
// (delay mode) or area-flow (area mode), with cover extraction into an
// explicit LUT netlist. The paper positions its framework as generic
// across synthesis stages — LUT mapping is the backend its related work
// (Liu & Zhang's LUT-mapping area optimization) targets, so this package
// lets the same flow-development pipeline optimize FPGA QoR.
package lutmap

import (
	"fmt"
	"math"

	"flowgen/internal/aig"
	"flowgen/internal/bitvec"
	"flowgen/internal/cut"
)

// Mode selects the covering objective.
type Mode int

const (
	// DepthMode minimizes LUT levels, breaking ties on area-flow.
	DepthMode Mode = iota
	// AreaMode minimizes area-flow, breaking ties on depth.
	AreaMode
)

// QoR is the quality of a LUT cover.
type QoR struct {
	LUTs  int // number of LUTs
	Depth int // LUT levels on the critical path
}

// LUT is one lookup table of the mapped netlist.
type LUT struct {
	Inputs []int     // driving nodes: graph node ids (PIs or other LUT roots)
	Root   int       // the AIG node this LUT implements
	TT     bitvec.TT // function over Inputs
}

// Netlist is a mapped LUT network, in topological order.
type Netlist struct {
	K    int
	LUTs []LUT
	POs  []aig.Lit // graph literals (node = LUT root or PI, phase = inversion)
}

// Map covers the graph with k-input LUTs.
func Map(g *aig.AIG, k int, mode Mode) (QoR, *Netlist, error) {
	if k < 2 || k > 8 {
		return QoR{}, nil, fmt.Errorf("lutmap: k=%d out of range [2,8]", k)
	}
	g.RecomputeRefs()
	var cuts cut.Set
	cuts.Enumerate(g, k, 12)

	type state struct {
		depth int
		flow  float64
		cut   int // index of the chosen cut in cuts.Of, or -1
	}
	n := g.NumNodesRaw()
	st := make([]state, n)
	for i := range st {
		st[i] = state{depth: math.MaxInt32, flow: math.Inf(1), cut: -1}
	}
	st[0] = state{} // constant
	for i := 0; i < g.NumPIs(); i++ {
		st[g.PI(i).Node()] = state{}
	}
	refW := func(id int) float64 {
		r := g.Ref(id)
		if r < 1 {
			r = 1
		}
		return float64(r)
	}
	g.ForEachLiveAnd(func(id int) {
		best := state{depth: math.MaxInt32, flow: math.Inf(1), cut: -1}
		nodeCuts := cuts.Of(id)
		for ci := range nodeCuts {
			c := &nodeCuts[ci]
			if len(c.Leaves()) == 1 && int(c.Leaves()[0]) == id {
				continue // trivial cut
			}
			d := 0
			flow := 1.0
			ok := true
			for _, l := range c.Leaves() {
				ls := st[l]
				if ls.depth == math.MaxInt32 {
					ok = false
					break
				}
				if ls.depth > d {
					d = ls.depth
				}
				flow += ls.flow / refW(int(l))
			}
			if !ok {
				continue
			}
			d++
			better := false
			if mode == DepthMode {
				better = d < best.depth || (d == best.depth && flow < best.flow)
			} else {
				better = flow < best.flow || (flow == best.flow && d < best.depth)
			}
			if better {
				best = state{depth: d, flow: flow, cut: ci}
			}
		}
		if best.cut < 0 {
			// Fanin-pair cut always exists for k >= 2; defensive.
			panic("lutmap: no cut selected")
		}
		st[id] = best
	})

	// Cover extraction.
	nl := &Netlist{K: k}
	visited := map[int]bool{}
	depthOf := map[int]int{}
	var emit func(id int) int
	emit = func(id int) int {
		if !g.IsAnd(id) {
			return 0
		}
		if visited[id] {
			return depthOf[id]
		}
		visited[id] = true
		c := &cuts.Of(id)[st[id].cut]
		inputs := make([]int, len(c.Leaves()))
		d := 0
		for i, l := range c.Leaves() {
			inputs[i] = int(l)
			if dl := emit(inputs[i]); dl > d {
				d = dl
			}
		}
		d++
		depthOf[id] = d
		// The LUT keeps a copy of the table rather than pinning the
		// whole cut set.
		nl.LUTs = append(nl.LUTs, LUT{Inputs: inputs, Root: id, TT: cuts.TT(id, st[id].cut).Clone()})
		return d
	}
	q := QoR{}
	for i := 0; i < g.NumPOs(); i++ {
		l := g.PO(i)
		if d := emit(l.Node()); d > q.Depth {
			q.Depth = d
		}
		nl.POs = append(nl.POs, l)
	}
	q.LUTs = len(nl.LUTs)
	return q, nl, nil
}

// Simulate evaluates the LUT netlist on one PI assignment (keyed by PI
// node id) and returns PO values.
func (nl *Netlist) Simulate(piVals map[int]bool) []bool {
	val := map[int]bool{0: false}
	for id, v := range piVals {
		val[id] = v
	}
	for _, l := range nl.LUTs {
		idx := 0
		for i, in := range l.Inputs {
			if val[in] {
				idx |= 1 << uint(i)
			}
		}
		val[l.Root] = l.TT.Bit(idx)
	}
	out := make([]bool, len(nl.POs))
	for i, po := range nl.POs {
		v := val[po.Node()]
		if po.IsNeg() {
			v = !v
		}
		out[i] = v
	}
	return out
}
