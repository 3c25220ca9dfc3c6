package techmap

import (
	"maps"
	"math/rand"
	"testing"

	"flowgen/internal/aig"
	"flowgen/internal/cells"
	"flowgen/internal/circuits"
	"flowgen/internal/cut"
	"flowgen/internal/rewrite"
)

func buildRandom(rng *rand.Rand, nin, nand int) *aig.AIG {
	g := aig.New()
	lits := make([]aig.Lit, 0, nin+nand)
	for i := 0; i < nin; i++ {
		lits = append(lits, g.AddInput("i"))
	}
	for i := 0; i < nand; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < 4 && i < len(lits); i++ {
		g.AddOutput(lits[len(lits)-1-i].NotIf(i%2 == 1), "o")
	}
	g.RecomputeRefs()
	return g
}

var testMatcher = NewMatcher(cells.New14nm())

func TestMatcherCoversBasicFunctions(t *testing.T) {
	// AND2 over leaves (x0&x1) padded to 4 vars.
	var key uint16
	for m := 0; m < 16; m++ {
		if m&1 != 0 && m&2 != 0 {
			key |= 1 << uint(m)
		}
	}
	if len(testMatcher.lookup(key)) == 0 {
		t.Fatal("no match for AND2")
	}
	// Negated single input (~x0): INV must match.
	var invKey uint16
	for m := 0; m < 16; m++ {
		if m&1 == 0 {
			invKey |= 1 << uint(m)
		}
	}
	if len(testMatcher.lookup(invKey)) == 0 {
		t.Fatal("no match for INV")
	}
}

// cellCounts counts a netlist's instances per cell name.
func cellCounts(nl *Netlist) map[string]int {
	counts := map[string]int{}
	for _, gt := range nl.Gates {
		counts[nl.Lib.Cells[gt.Cell].Name]++
	}
	return counts
}

// mapCells maps g in area mode and counts its cells.
func mapCells(g *aig.AIG) (QoR, map[string]int) {
	q, nl := MapNetlist(g, testMatcher, AreaMode)
	return q, cellCounts(nl)
}

func TestMapSimpleAnd(t *testing.T) {
	g := aig.New()
	a, b := g.AddInput("a"), g.AddInput("b")
	g.AddOutput(g.And(a, b), "f")
	q, cells := mapCells(g)
	if q.Gates != 1 || cells["AND2_X1"] != 1 {
		t.Fatalf("AND2 mapping: %+v", q)
	}
	if q.Area != 0.510 || q.Delay != 9.0 {
		t.Fatalf("AND2 area/delay: %+v", q)
	}
}

func TestMapNandPrefersSingleCell(t *testing.T) {
	g := aig.New()
	a, b := g.AddInput("a"), g.AddInput("b")
	g.AddOutput(g.And(a, b).Not(), "f")
	q, cells := mapCells(g)
	if cells["NAND2_X1"] != 1 || q.Gates != 1 {
		t.Fatalf("NAND should map to one NAND2: %+v", q)
	}
}

func TestMapXorUsesXorCell(t *testing.T) {
	g := aig.New()
	a, b := g.AddInput("a"), g.AddInput("b")
	g.AddOutput(g.Xor(a, b), "f")
	q, cells := mapCells(g)
	if cells["XOR2_X1"] != 1 || q.Gates != 1 {
		t.Fatalf("XOR should map to one XOR2: %+v", q)
	}
}

func TestMappedNetlistFunctionallyCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		g := buildRandom(rng, 6, 80)
		for _, mode := range []Mode{AreaMode, DelayMode} {
			_, nl := MapNetlist(g, testMatcher, mode)
			// Compare on 64 random input vectors.
			for vec := 0; vec < 64; vec++ {
				in := make([]bool, g.NumPIs())
				piVals := map[int]bool{}
				for i := range in {
					in[i] = rng.Intn(2) == 1
					piVals[g.PI(i).Node()] = in[i]
				}
				want := g.EvalUint(in)
				got := nl.Simulate(piVals)
				for o := range want {
					if want[o] != got[o] {
						t.Fatalf("trial %d mode %d vec %d output %d: netlist %v, aig %v",
							trial, mode, vec, o, got[o], want[o])
					}
				}
			}
		}
	}
}

func TestDelayModeNoSlowerThanAreaMode(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		g := buildRandom(rng, 8, 150)
		qa := Map(g, testMatcher, AreaMode)
		qd := Map(g, testMatcher, DelayMode)
		if qd.Delay > qa.Delay+1e-9 {
			t.Fatalf("trial %d: delay mode slower than area mode: %.2f vs %.2f",
				trial, qd.Delay, qa.Delay)
		}
		if qa.Area > qd.Area+1e-9 {
			// Area mode must not be worse in area than delay mode.
			t.Fatalf("trial %d: area mode larger than delay mode: %.3f vs %.3f",
				trial, qa.Area, qd.Area)
		}
	}
}

func TestMapHandlesConstAndPassthroughOutputs(t *testing.T) {
	g := aig.New()
	a := g.AddInput("a")
	g.AddOutput(aig.ConstFalse, "zero")
	g.AddOutput(aig.ConstTrue, "one")
	g.AddOutput(a, "pass")
	g.AddOutput(a.Not(), "npass")
	q, cells := mapCells(g)
	if q.Gates != 1 || cells["INV_X1"] != 1 {
		t.Fatalf("expected exactly one inverter, got %+v", q)
	}
}

func TestMapDeterministic(t *testing.T) {
	mk := func() *aig.AIG { return buildRandom(rand.New(rand.NewSource(55)), 8, 120) }
	q1 := Map(mk(), testMatcher, AreaMode)
	q2 := Map(mk(), testMatcher, AreaMode)
	if q1.Area != q2.Area || q1.Delay != q2.Delay || q1.Gates != q2.Gates {
		t.Fatalf("nondeterministic mapping: %+v vs %+v", q1, q2)
	}
}

// TestMapWithWorkspaceMatchesMap maps graphs of different sizes in turn
// on one workspace whose cut set rewrite passes also enumerate into
// between mappings, as a synthesis worker does, in both modes: each QoR
// must be the one a fresh Map gives.
func TestMapWithWorkspaceMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	var graphs []*aig.AIG
	for _, design := range []string{"miniaes2", "alu8"} {
		d, err := circuits.ByName(design)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, d.Build().Cleanup())
	}
	graphs = append(graphs, buildRandom(rng, 12, 900), buildRandom(rng, 4, 30))
	cuts := new(cut.Set)
	ws := NewWorkspace(cuts)
	rw, err := rewrite.NewLibrary().Bind("rewrite", rewrite.NewWorkspace(cuts))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i, g := range graphs {
			for _, mode := range []Mode{AreaMode, DelayMode} {
				want, wantNl := MapNetlist(g.Clone(), testMatcher, mode)
				got, gotNl := mapNetlist(g.Clone(), testMatcher, mode, ws)
				if got != want || !maps.Equal(cellCounts(gotNl), cellCounts(wantNl)) {
					t.Fatalf("round %d graph %d mode %d: reused workspace %+v, fresh %+v", round, i, mode, got, want)
				}
				rw(g.Clone())
			}
		}
	}
}

func TestSharedLogicMappedOnce(t *testing.T) {
	// One shared AND feeding two outputs must be a single gate.
	g := aig.New()
	a, b := g.AddInput("a"), g.AddInput("b")
	n := g.And(a, b)
	g.AddOutput(n, "f1")
	g.AddOutput(n, "f2")
	q := Map(g, testMatcher, AreaMode)
	if q.Gates != 1 {
		t.Fatalf("shared node duplicated: %+v", q)
	}
}

func BenchmarkMapArea(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := buildRandom(rng, 16, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Map(g, testMatcher, AreaMode)
	}
}

// BenchmarkMapDelay times the mapping a QoR label ends with: delay mode,
// as the synthesis engine maps, on a workspace reused across iterations,
// as each engine worker's is, over the canonical graphs of the designs
// the labeling benchmarks use.
func BenchmarkMapDelay(b *testing.B) {
	for _, design := range []string{"alu8", "miniaes2"} {
		d, err := circuits.ByName(design)
		if err != nil {
			b.Fatal(err)
		}
		g := d.Build().Cleanup()
		b.Run(design, func(b *testing.B) {
			ws := NewWorkspace(nil)
			MapWith(g, testMatcher, DelayMode, ws)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MapWith(g, testMatcher, DelayMode, ws)
			}
		})
	}
}

func BenchmarkNewMatcher(b *testing.B) {
	lib := cells.New14nm()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewMatcher(lib)
	}
}

func TestCriticalPathLoadModel(t *testing.T) {
	// Hand-built netlist: gate g1 (AND2) drives three sinks (two gates
	// and a PO), so its stage delay is base + 2*slope; the second stage
	// has a single sink.
	lib := cells.New14nm()
	and2 := -1
	for i, c := range lib.Cells {
		if c.Name == "AND2_X1" {
			and2 = i
		}
	}
	n1 := Net{Node: 10, Phase: 0}
	n2 := Net{Node: 11, Phase: 0}
	n3 := Net{Node: 12, Phase: 0}
	a, b, c, d := Net{1, 0}, Net{2, 0}, Net{3, 0}, Net{4, 0}
	nl := &Netlist{
		Lib: lib,
		Gates: []Gate{
			{Cell: and2, Inputs: []Net{a, b}, Output: n1},
			{Cell: and2, Inputs: []Net{n1, c}, Output: n2},
			{Cell: and2, Inputs: []Net{n1, d}, Output: n3},
		},
		POs: []Net{n1, n2, n3},
	}
	base := lib.Cells[and2].Delay
	want := (base + 2*LoadSlopePs) + base // n1 stage (fanout 3) + n2/n3 stage (fanout 1)
	if got := nl.CriticalPath(); got != want {
		t.Fatalf("critical path %.2f, want %.2f", got, want)
	}
}

func TestLoadModelSpreadsStructures(t *testing.T) {
	// Two netlists with the same cells but different fanout distributions
	// must time differently: a balanced tree vs a chain of the same gates.
	chain := aig.New()
	in := make([]aig.Lit, 8)
	for i := range in {
		in[i] = chain.AddInput("x")
	}
	acc := in[0]
	for i := 1; i < 8; i++ {
		acc = chain.And(acc, in[i])
	}
	chain.AddOutput(acc, "f")
	qc := Map(chain, testMatcher, AreaMode)

	tree := aig.New()
	in = make([]aig.Lit, 8)
	for i := range in {
		in[i] = tree.AddInput("x")
	}
	l1 := []aig.Lit{tree.And(in[0], in[1]), tree.And(in[2], in[3]), tree.And(in[4], in[5]), tree.And(in[6], in[7])}
	l2 := []aig.Lit{tree.And(l1[0], l1[1]), tree.And(l1[2], l1[3])}
	tree.AddOutput(tree.And(l2[0], l2[1]), "f")
	qt := Map(tree, testMatcher, AreaMode)

	if qt.Delay >= qc.Delay {
		t.Fatalf("balanced tree (%.1f) must be faster than chain (%.1f)", qt.Delay, qc.Delay)
	}
}
