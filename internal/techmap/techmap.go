// Package techmap implements cut-based technology mapping of AIGs onto a
// standard-cell library, with an area mode (area-flow heuristic) and a
// delay mode (arrival-time minimization), followed by cover extraction
// and static timing. It replaces the paper's "technology mapping with a
// 14nm standard-cell library" step and produces the area and delay
// numbers that label synthesis flows.
package techmap

import (
	"math"

	"flowgen/internal/aig"
	"flowgen/internal/cells"
	"flowgen/internal/cut"
)

// Mode selects the mapping objective.
type Mode int

const (
	// AreaMode minimizes area using the area-flow heuristic.
	AreaMode Mode = iota
	// DelayMode minimizes the critical-path arrival time.
	DelayMode
)

// QoR is the quality of result of a mapped netlist.
type QoR struct {
	Area  float64 // total cell area, µm²
	Delay float64 // critical path, ps (load-aware STA)
	Gates int     // number of cell instances
}

// LoadSlopePs is the per-extra-fanout delay penalty used by the final
// static timing pass. FinFET-class libraries have strongly load-dependent
// delays; modeling them makes post-mapping delay sensitive to netlist
// structure (fanout distribution), which is what spreads the delay of
// different synthesis flows apart (Figure 1 of the paper). A gate driving
// a single sink incurs no penalty.
const LoadSlopePs = 1.25

// match is one way to implement a cut function with a library cell:
// cell input i connects to cut variable pins[i], complemented when
// negs bit i is set.
type match struct {
	cell int
	pins [4]int8
	negs uint8
	k    int
}

// Matcher is a reusable matching table for a library (truth table over 4
// variables -> implementations). Building it is moderately expensive, so
// share one Matcher across Map calls. It is immutable after construction
// and safe for concurrent use.
type Matcher struct {
	Lib *cells.Library
	// list holds every match grouped by key; the matches of key k are
	// list[index[k]:index[k+1]], in the order NewMatcher enumerates them.
	list  []match
	index [1<<16 + 1]uint16
}

// lookup returns the matches whose function is the 4-variable table key.
func (m *Matcher) lookup(key uint16) []match { return m.list[m.index[key]:m.index[int(key)+1]] }

// NewMatcher precomputes the match table: every cell, under every
// injective pin assignment into 4 cut variables and every input
// complementation, keyed by the resulting 4-variable truth table. Each
// key keeps its matches in that order (cell, then pin assignment, then
// complementation), since the mapping DP keeps the first of equal-cost
// matches. The table is a counting sort of the enumeration: one pass
// counts the matches of each key, the next places them.
func NewMatcher(lib *cells.Library) *Matcher {
	m := &Matcher{Lib: lib}
	n := 0
	eachMatch(lib, func(key uint16, _ match) {
		m.index[int(key)+1]++
		n++
	})
	if n > 1<<16-1 {
		panic("techmap: library has more matches than the table indexes")
	}
	// index[k+1] becomes the first slot of key k; placing a match moves
	// it on, so it ends as the slot after key k's last, where key k+1
	// starts.
	var next uint16
	for k := 1; k < len(m.index); k++ {
		m.index[k], next = next, next+m.index[k]
	}
	m.list = make([]match, n)
	eachMatch(lib, func(key uint16, e match) {
		m.list[m.index[int(key)+1]] = e
		m.index[int(key)+1]++
	})
	return m
}

// eachMatch calls fn with every match of every cell of lib that fits a
// 4-variable cut and the truth table it implements: cell by cell, its
// injective pin assignments in lexicographic order, and for each, its
// input complementations in ascending order.
func eachMatch(lib *cells.Library, fn func(key uint16, e match)) {
	for ci, c := range lib.Cells {
		if c.Inputs > 4 {
			continue
		}
		f := uint16(c.TT.Words()[0])
		// Assignment t gives input i the base-4 digit i of t, most
		// significant first; those that repeat a variable are skipped.
	assign:
		for t := 0; t < 1<<(2*c.Inputs); t++ {
			e := match{cell: ci, k: c.Inputs}
			used := 0
			for i := 0; i < c.Inputs; i++ {
				p := t >> (2 * (c.Inputs - 1 - i)) & 3
				if used>>p&1 != 0 {
					continue assign
				}
				used |= 1 << p
				e.pins[i] = int8(p)
			}
			for negs := 0; negs < 1<<c.Inputs; negs++ {
				e.negs = uint8(negs)
				fn(expandKey(f, c.Inputs, &e), e)
			}
		}
	}
}

// cutVars are the truth tables of the 4 cut variables.
var cutVars = [4]uint16{0xAAAA, 0xCCCC, 0xF0F0, 0xFF00}

// expandKey computes the 16-bit truth table, over 4 cut variables, of
// the n-input cell function f (bit idx is its value on input minterm
// idx) under e's pin assignment and input complementation, a word at a
// time: the table's 2^n constants are folded one input at a time, last
// input first, each fold selecting between the halves by that input's
// function of the cut variables.
func expandKey(f uint16, n int, e *match) uint16 {
	var lanes [16]uint16
	for idx := range 1 << n {
		lanes[idx] = -(f >> idx & 1)
	}
	for i := n - 1; i >= 0; i-- {
		x := cutVars[e.pins[i]]
		if e.negs>>i&1 != 0 {
			x = ^x
		}
		half := 1 << i
		for j := range half {
			lanes[j] = lanes[j]&^x | lanes[j+half]&x
		}
	}
	return lanes[0]
}

// choice is the selected implementation of one node phase: an inverter
// on the other phase, or match m on the node's cut number cut.
type choice struct {
	viaInv bool
	valid  bool
	cut    int32
	m      match
}

// Net identifies a signal in the mapped netlist: a graph node in a given
// phase (0 positive, 1 negative).
type Net struct {
	Node  int
	Phase int
}

// Gate is one cell instance of the mapped netlist.
type Gate struct {
	Cell   int // index into the library
	Inputs []Net
	Output Net
}

// Netlist is the mapped cell-level netlist, gates in topological order.
type Netlist struct {
	Lib   *cells.Library
	Gates []Gate
	POs   []Net
}

// Simulate evaluates the netlist on one input assignment (indexed by the
// source graph's PI order, provided as values keyed by PI node id).
func (nl *Netlist) Simulate(piVals map[int]bool) []bool {
	val := map[Net]bool{}
	val[Net{0, 0}] = false
	val[Net{0, 1}] = true
	for id, v := range piVals {
		val[Net{id, 0}] = v
		val[Net{id, 1}] = !v
	}
	for _, gt := range nl.Gates {
		cell := nl.Lib.Cells[gt.Cell]
		idx := 0
		for i, in := range gt.Inputs {
			if val[in] {
				idx |= 1 << uint(i)
			}
		}
		val[gt.Output] = cell.TT.Bit(idx)
	}
	out := make([]bool, len(nl.POs))
	for i, po := range nl.POs {
		out[i] = val[po]
	}
	return out
}

// Workspace is the memory a mapping works in: the cut set it enumerates
// into, which the rewrite passes of the same goroutine may share, the
// per-node, per-phase arrays of the mapping DP, cover extraction and
// timing, and the netlist's gate and net lists. A reused workspace stops
// allocating once it has grown to the largest graph it has mapped. It
// serves one mapping at a time and must never be used from two
// goroutines.
type Workspace struct {
	cuts *cut.Set
	cost [][2]float64
	arr  [][2]float64
	sel  [][2]choice
	// emitted marks the nets cover extraction has materialized; at holds
	// their arrival times.
	emitted [][2]bool
	at      [][2]float64
	fanout  [][2]int32 // timing: sinks of each net
	walk    aig.Walker

	// The last netlist's lists, which the next mapping overwrites.
	gates []Gate
	nets  []Net // gate inputs
	pos   []Net
}

// NewWorkspace returns a mapping workspace that enumerates into cuts; a
// nil cuts gives it a set of its own.
func NewWorkspace(cuts *cut.Set) *Workspace {
	if cuts == nil {
		cuts = new(cut.Set)
	}
	return &Workspace{cuts: cuts}
}

// zeroed returns s resized to n zero elements, reusing its array when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset sizes the arrays for n nodes and restores the DP identity
// (infinite cost, no selection).
func (w *Workspace) reset(n int) {
	w.cost = zeroed(w.cost, n)
	w.arr = zeroed(w.arr, n)
	w.sel = zeroed(w.sel, n)
	w.emitted = zeroed(w.emitted, n)
	w.at = zeroed(w.at, n)
	inf := math.Inf(1)
	for i := range w.cost {
		w.cost[i] = [2]float64{inf, inf}
		w.arr[i] = [2]float64{inf, inf}
	}
}

// Map covers the graph with library cells and returns the QoR. The graph
// is not modified (beyond ref/level recomputation).
func Map(g *aig.AIG, matcher *Matcher, mode Mode) QoR {
	return MapWith(g, matcher, mode, NewWorkspace(nil))
}

// MapWith is Map working in ws.
func MapWith(g *aig.AIG, matcher *Matcher, mode Mode, ws *Workspace) QoR {
	q, _ := mapNetlist(g, matcher, mode, ws)
	return q
}

// MapNetlist maps the graph and also returns the cell netlist for
// inspection or simulation.
func MapNetlist(g *aig.AIG, matcher *Matcher, mode Mode) (QoR, *Netlist) {
	return mapNetlist(g, matcher, mode, NewWorkspace(nil))
}

// mapNetlist is MapNetlist working in ws.
func mapNetlist(g *aig.AIG, matcher *Matcher, mode Mode, ws *Workspace) (QoR, *Netlist) {
	g.RecomputeRefs()
	ws.cuts.Enumerate(g, 4, 8)
	ws.reset(g.NumNodesRaw())
	ws.match(g, matcher, mode)
	return ws.cover(g, matcher)
}

// match runs the mapping DP: it picks, for every live node phase in
// topological order, the cheapest implementation under mode, recording
// its area flow in ws.cost, its arrival in ws.arr and the choice in
// ws.sel. Each cut's leaf terms (area flow, arrival, whether the leaf
// phase is implemented) are read once for all of its matches. In delay
// mode a match's area is priced only when its arrival ties or beats the
// node's best so far, since only then can the area decide.
func (ws *Workspace) match(g *aig.AIG, matcher *Matcher, mode Mode) {
	lib := matcher.Lib
	inv := lib.Inv()
	cs := ws.cuts
	cost, arr, sel := ws.cost, ws.arr, ws.sel
	// Constant node: free in both phases.
	cost[0] = [2]float64{0, 0}
	arr[0] = [2]float64{0, 0}
	for i := 0; i < g.NumPIs(); i++ {
		id := g.PI(i).Node()
		cost[id][0], arr[id][0] = 0, 0
		cost[id][1] = inv.Area
		arr[id][1] = inv.Delay
		sel[id][1] = choice{viaInv: true, valid: true}
	}

	// The current cut's terms per leaf and phase: area flow (the leaf's
	// cost shared among its fanouts), arrival, and whether it is mapped.
	var flow, at [4][2]float64
	var mapped [4][2]bool
	for _, id32 := range ws.walk.LiveAnds(g) {
		id := int(id32)
		nodeCuts := cs.Of(id)
		for ci := range nodeCuts {
			leaves := nodeCuts[ci].Leaves()
			if len(leaves) == 1 && int(leaves[0]) == id {
				continue // trivial cut
			}
			for i, l := range leaves {
				leaf := int(l)
				r := float64(max(g.Ref(leaf), 1))
				for ph := 0; ph < 2; ph++ {
					flow[i][ph] = cost[leaf][ph] / r
					at[i][ph] = arr[leaf][ph]
					mapped[i][ph] = !math.IsInf(cost[leaf][ph], 1)
				}
			}
			key := uint16(cs.TT(id, ci).Words()[0] & 0xFFFF)
			for phase := 0; phase < 2; phase++ {
				k := key
				if phase == 1 {
					k = ^key
				}
				best := &arr[id][phase]
				for _, m := range matcher.lookup(k) {
					cell := &lib.Cells[m.cell]
					dCost, feasible := 0.0, true
					for i := 0; i < m.k; i++ {
						pin, ph := int(m.pins[i]), int(m.negs>>i&1)
						if pin >= len(leaves) || !mapped[pin][ph] {
							feasible = false
							break
						}
						if t := at[pin][ph] + cell.Delay; t > dCost {
							dCost = t
						}
					}
					if m.k == 0 {
						dCost = cell.Delay
					}
					if !feasible || mode == DelayMode && dCost > *best {
						continue
					}
					aCost := cell.Area
					for i := 0; i < m.k; i++ {
						aCost += flow[m.pins[i]][m.negs>>i&1]
					}
					var better bool
					if mode == AreaMode {
						better = aCost < cost[id][phase] ||
							(aCost == cost[id][phase] && dCost < *best)
					} else {
						better = dCost < *best ||
							(dCost == *best && aCost < cost[id][phase])
					}
					if better {
						cost[id][phase] = aCost
						*best = dCost
						sel[id][phase] = choice{cut: int32(ci), m: m, valid: true}
					}
				}
			}
		}
		// Phase conversion through an inverter (one relaxation round).
		for p := 0; p < 2; p++ {
			o := 1 - p
			ac := cost[id][o] + inv.Area
			dc := arr[id][o] + inv.Delay
			better := false
			if mode == AreaMode {
				better = ac < cost[id][p] || (ac == cost[id][p] && dc < arr[id][p])
			} else {
				better = dc < arr[id][p] || (dc == arr[id][p] && ac < cost[id][p])
			}
			if better {
				cost[id][p] = ac
				arr[id][p] = dc
				sel[id][p] = choice{viaInv: true, valid: true}
			}
		}
	}
}

// cover extracts the netlist the DP's selections describe, from the
// primary outputs, and times it.
func (ws *Workspace) cover(g *aig.AIG, matcher *Matcher) (QoR, *Netlist) {
	lib := matcher.Lib
	inv := lib.Inv()
	cs, sel := ws.cuts, ws.sel

	// Cover extraction from the primary outputs. Gate input lists are
	// carved from shared chunks; a full chunk is replaced by one twice its
	// size, and the workspace keeps the last for the next mapping.
	emitted, at := ws.emitted, ws.at
	materialize := func(key Net, a float64) float64 {
		emitted[key.Node][key.Phase] = true
		at[key.Node][key.Phase] = a
		return a
	}
	inBuf := ws.nets[:0]
	netsOf := func(k int) []Net {
		if len(inBuf)+k > cap(inBuf) {
			inBuf = make([]Net, 0, max(1024, 2*cap(inBuf), k))
		}
		l := len(inBuf)
		inBuf = inBuf[:l+k]
		return inBuf[l : l+k : l+k]
	}
	var q QoR
	nl := &Netlist{Lib: lib, Gates: ws.gates[:0], POs: ws.pos[:0]}
	addGate := func(cellIdx int, inputs []Net, out Net) {
		q.Area += lib.Cells[cellIdx].Area
		q.Gates++
		nl.Gates = append(nl.Gates, Gate{Cell: cellIdx, Inputs: inputs, Output: out})
	}
	addInv := func(in, out Net) {
		inputs := netsOf(1)
		inputs[0] = in
		addGate(lib.InvIndex(), inputs, out)
	}
	var emit func(id, phase int) float64
	emit = func(id, phase int) float64 {
		key := Net{id, phase}
		if emitted[id][phase] {
			return at[id][phase]
		}
		// Constants are free nets.
		if g.Kind(id) == aig.KindConst {
			return materialize(key, 0)
		}
		if g.Kind(id) == aig.KindInput {
			if phase == 0 {
				return materialize(key, 0)
			}
			a := emit(id, 0) + inv.Delay
			addInv(Net{id, 0}, key)
			return materialize(key, a)
		}
		ch := sel[id][phase]
		if !ch.valid {
			panic("techmap: unmatched node phase (library incomplete)")
		}
		if ch.viaInv {
			a := emit(id, 1-phase) + inv.Delay
			addInv(Net{id, 1 - phase}, key)
			return materialize(key, a)
		}
		cell := lib.Cells[ch.m.cell]
		worst := 0.0
		// Mark before recursing to guard cyclic misuse (cannot happen on
		// a DAG, but keeps the cost model safe if the cut is stale).
		materialize(key, math.Inf(1))
		inputs := netsOf(ch.m.k)
		leaves := cs.Of(id)[ch.cut].Leaves()
		for i := 0; i < ch.m.k; i++ {
			leaf := int(leaves[ch.m.pins[i]])
			ph := 0
			if ch.m.negs&(1<<uint(i)) != 0 {
				ph = 1
			}
			inputs[i] = Net{leaf, ph}
			if a := emit(leaf, ph); a > worst {
				worst = a
			}
		}
		addGate(ch.m.cell, inputs, key)
		return materialize(key, worst+cell.Delay)
	}
	for i := 0; i < g.NumPOs(); i++ {
		l := g.PO(i)
		ph := 0
		if l.IsNeg() {
			ph = 1
		}
		nl.POs = append(nl.POs, Net{l.Node(), ph})
		emit(l.Node(), ph)
	}
	ws.gates, ws.nets, ws.pos = nl.Gates, inBuf, nl.POs
	q.Delay = nl.criticalPath(ws)
	return q, nl
}

// CriticalPath runs load-aware static timing over the netlist: a gate's
// delay is its library delay plus LoadSlopePs per fanout beyond the
// first. Gates are in topological order by construction.
func (nl *Netlist) CriticalPath() float64 { return nl.criticalPath(new(Workspace)) }

// criticalPath is CriticalPath with its per-net arrays in ws. It reuses
// the DP's arrival times, which a mapping no longer reads by then.
func (nl *Netlist) criticalPath(ws *Workspace) float64 {
	// Nets are indexed by [node][phase]; a net no gate drives (a PI or a
	// constant) arrives at 0.
	n := 0
	for _, po := range nl.POs {
		n = max(n, po.Node+1)
	}
	for _, gt := range nl.Gates {
		n = max(n, gt.Output.Node+1)
		for _, in := range gt.Inputs {
			n = max(n, in.Node+1)
		}
	}
	fanout := zeroed(ws.fanout, n)
	ws.fanout = fanout
	for _, gt := range nl.Gates {
		for _, in := range gt.Inputs {
			fanout[in.Node][in.Phase]++
		}
	}
	for _, po := range nl.POs {
		fanout[po.Node][po.Phase]++
	}
	arr := zeroed(ws.arr, n)
	ws.arr = arr
	for _, gt := range nl.Gates {
		worst := 0.0
		for _, in := range gt.Inputs {
			if a := arr[in.Node][in.Phase]; a > worst {
				worst = a
			}
		}
		load := max(fanout[gt.Output.Node][gt.Output.Phase], 1)
		arr[gt.Output.Node][gt.Output.Phase] = worst + nl.Lib.Cells[gt.Cell].Delay + LoadSlopePs*float64(load-1)
	}
	crit := 0.0
	for _, po := range nl.POs {
		if a := arr[po.Node][po.Phase]; a > crit {
			crit = a
		}
	}
	return crit
}
