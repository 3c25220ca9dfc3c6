package techmap

import (
	"math"
	"slices"
	"testing"

	"flowgen/internal/aig"
	"flowgen/internal/cells"
	"flowgen/internal/circuits"
	"flowgen/internal/rewrite"
)

// tableOracle is the match table as NewMatcher built it before the dense
// index: a map from each key to its matches, appended cell by cell, pin
// assignment by pin assignment and complementation by complementation,
// each key computed minterm by minterm. It is the oracle the index is
// held to.
func tableOracle(lib *cells.Library) map[uint16][]match {
	table := make(map[uint16][]match)
	for ci, c := range lib.Cells {
		for _, pins := range injectionsOracle(c.Inputs) {
			for negs := 0; negs < 1<<uint(c.Inputs); negs++ {
				key := expandKeyOracle(c, pins, uint8(negs))
				e := match{cell: ci, negs: uint8(negs), k: c.Inputs}
				copy(e.pins[:], pins)
				table[key] = append(table[key], e)
			}
		}
	}
	return table
}

// expandKeyOracle computes the 16-bit truth table of cell c over 4 cut
// variables with the given pin assignment and input complementation, one
// minterm at a time.
func expandKeyOracle(c cells.Cell, pins []int8, negs uint8) uint16 {
	var key uint16
	for minterm := 0; minterm < 16; minterm++ {
		idx := 0
		for i := 0; i < c.Inputs; i++ {
			v := minterm&(1<<uint(pins[i])) != 0
			if negs&(1<<uint(i)) != 0 {
				v = !v
			}
			if v {
				idx |= 1 << uint(i)
			}
		}
		if c.TT.Bit(idx) {
			key |= 1 << uint(minterm)
		}
	}
	return key
}

// injectionsOracle enumerates injective assignments of k cell inputs to
// the 4 cut variable positions, depth first.
func injectionsOracle(k int) [][]int8 {
	var out [][]int8
	cur := make([]int8, 0, k)
	used := [4]bool{}
	var rec func()
	rec = func() {
		if len(cur) == k {
			out = append(out, slices.Clone(cur))
			return
		}
		for p := int8(0); p < 4; p++ {
			if used[p] {
				continue
			}
			used[p] = true
			cur = append(cur, p)
			rec()
			cur = cur[:len(cur)-1]
			used[p] = false
		}
	}
	rec()
	return out
}

// TestMatcherIndexMatchesMap requires the matcher to return, for every
// one of the 65,536 keys, the matches the map-built table holds, in the
// same order: the mapping DP keeps the first of equal-cost matches, so
// the order is part of every label.
func TestMatcherIndexMatchesMap(t *testing.T) {
	lib := cells.New14nm()
	m, want := NewMatcher(lib), tableOracle(lib)
	total, most := 0, 0
	for key := range 1 << 16 {
		got := m.lookup(uint16(key))
		if !slices.Equal(got, want[uint16(key)]) {
			t.Fatalf("key %#04x: index gives %+v, map %+v", key, got, want[uint16(key)])
		}
		total += len(got)
		most = max(most, len(got))
	}
	if total != len(m.list) {
		t.Fatalf("the index reaches %d of %d matches", total, len(m.list))
	}
	t.Logf("%d matches over %d keys, at most %d per key", total, len(want), most)
}

// matchOracle is the mapping DP's match loop as it was before each cut's
// leaf terms were read once and delay mode skipped pricing the area of
// matches that arrive late: every match's area flow and arrival are
// computed in full, leaf by leaf, and compared. It is kept as the oracle
// match is held to.
func (ws *Workspace) matchOracle(g *aig.AIG, matcher *Matcher, mode Mode) {
	lib := matcher.Lib
	inv := lib.Inv()
	cs := ws.cuts
	cost, arr, sel := ws.cost, ws.arr, ws.sel
	cost[0] = [2]float64{0, 0}
	arr[0] = [2]float64{0, 0}
	for i := 0; i < g.NumPIs(); i++ {
		id := g.PI(i).Node()
		cost[id][0], arr[id][0] = 0, 0
		cost[id][1] = inv.Area
		arr[id][1] = inv.Delay
		sel[id][1] = choice{viaInv: true, valid: true}
	}

	refWeight := func(id int) float64 {
		r := g.Ref(id)
		if r < 1 {
			r = 1
		}
		return float64(r)
	}

	for _, id32 := range ws.walk.LiveAnds(g) {
		id := int(id32)
		nodeCuts := cs.Of(id)
		for ci := range nodeCuts {
			leaves := nodeCuts[ci].Leaves()
			if len(leaves) == 1 && int(leaves[0]) == id {
				continue // trivial cut
			}
			key := uint16(cs.TT(id, ci).Words()[0] & 0xFFFF)
			for phase := 0; phase < 2; phase++ {
				k := key
				if phase == 1 {
					k = ^key
				}
				for _, m := range matcher.lookup(k) {
					cell := lib.Cells[m.cell]
					aCost, dCost := cell.Area, 0.0
					feasible := true
					for i := 0; i < m.k; i++ {
						if int(m.pins[i]) >= len(leaves) {
							feasible = false
							break
						}
						leaf := int(leaves[m.pins[i]])
						ph := 0
						if m.negs&(1<<uint(i)) != 0 {
							ph = 1
						}
						if math.IsInf(cost[leaf][ph], 1) {
							feasible = false
							break
						}
						aCost += cost[leaf][ph] / refWeight(leaf)
						if t := arr[leaf][ph] + cell.Delay; t > dCost {
							dCost = t
						}
					}
					if !feasible {
						continue
					}
					if m.k == 0 {
						dCost = cell.Delay
					}
					better := false
					if mode == AreaMode {
						better = aCost < cost[id][phase] ||
							(aCost == cost[id][phase] && dCost < arr[id][phase])
					} else {
						better = dCost < arr[id][phase] ||
							(dCost == arr[id][phase] && aCost < cost[id][phase])
					}
					if better {
						cost[id][phase] = aCost
						arr[id][phase] = dCost
						sel[id][phase] = choice{cut: int32(ci), m: m, valid: true}
					}
				}
			}
		}
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

// checkMatchesOracle maps g in both modes, on the mapper and on its
// oracle, and fails the test unless the QoRs are equal bit for bit and
// every node phase selects the same implementation.
func checkMatchesOracle(t *testing.T, name string, g *aig.AIG) {
	t.Helper()
	ws, oracle := NewWorkspace(nil), NewWorkspace(nil)
	for _, mode := range []Mode{AreaMode, DelayMode} {
		got, _ := mapNetlist(g, testMatcher, mode, ws)

		g.RecomputeRefs()
		oracle.cuts.Enumerate(g, 4, 8)
		oracle.reset(g.NumNodesRaw())
		oracle.matchOracle(g, testMatcher, mode)
		want, _ := oracle.cover(g, testMatcher)

		if got != want {
			t.Fatalf("%s, mode %d: QoR %+v, oracle %+v", name, mode, got, want)
		}
		for id := range ws.sel {
			if ws.sel[id] != oracle.sel[id] {
				t.Fatalf("%s, mode %d: node %d selects %+v, oracle %+v", name, mode, id, ws.sel[id], oracle.sel[id])
			}
		}
	}
}

// fuzzGraph builds a graph from fuzz bytes: the first byte picks 1–8
// PIs, each following pair of bytes one AND of two earlier literals (up
// to 200), counted back from the newest, so small bytes make deep,
// reconvergent logic; the last six literals drive the outputs. The graph
// is canonical, as the labeling engine's graphs are.
func fuzzGraph(data []byte) *aig.AIG {
	g := aig.New()
	npi := 1
	if len(data) > 0 {
		npi += int(data[0]) % 8
		data = data[1:]
	}
	lits := make([]aig.Lit, 0, npi+200)
	for i := 0; i < npi; i++ {
		lits = append(lits, g.AddInput("i"))
	}
	for i := 0; i+1 < len(data) && i < 400; i += 2 {
		a, b := data[i], data[i+1]
		x := lits[len(lits)-1-int(a>>1)%len(lits)].NotIf(a&1 != 0)
		y := lits[len(lits)-1-int(b>>1)%len(lits)].NotIf(b&1 != 0)
		lits = append(lits, g.And(x, y))
	}
	for i := 0; i < 6 && i < len(lits); i++ {
		g.AddOutput(lits[len(lits)-1-i], "o")
	}
	return g.Cleanup()
}

// FuzzMapMatchesOracle holds the mapping DP to its oracle on arbitrary
// small graphs, in both modes: the same QoR, bit for bit, and the same
// selection at every node phase.
func FuzzMapMatchesOracle(f *testing.F) {
	f.Add([]byte{3, 0, 2, 4, 7, 9, 10, 12, 1, 14, 17, 16, 5})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesOracle(t, "fuzz graph", fuzzGraph(data))
	})
}

// TestMapMatchesOracleOnDesigns holds the mapping DP to its oracle on the
// registered designs the labeling benchmarks use, from each design's
// canonical graph and from the graph a six-step flow leaves.
func TestMapMatchesOracleOnDesigns(t *testing.T) {
	for _, design := range []string{"alu8", "miniaes2", "mont8"} {
		d, err := circuits.ByName(design)
		if err != nil {
			t.Fatal(err)
		}
		g0 := d.Build().Cleanup()
		g1, _, err := rewrite.Apply(g0.Clone(), []string{"rewrite -z", "balance", "refactor -z", "restructure", "rewrite", "refactor"})
		if err != nil {
			t.Fatal(err)
		}
		checkMatchesOracle(t, design, g0)
		checkMatchesOracle(t, design+" after a flow", g1)
	}
}
