package sop

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"flowgen/internal/aig"
	"flowgen/internal/bitvec"
	"flowgen/internal/circuits"
	"flowgen/internal/cut"
)

func randomTT(rng *rand.Rand, k int) bitvec.TT {
	t := bitvec.New(k)
	for i := 0; i < t.NumBits(); i++ {
		if rng.Intn(2) == 1 {
			t.SetBit(i, true)
		}
	}
	return t
}

func TestISOPRoundTripExhaustive3Vars(t *testing.T) {
	// Every 3-variable function must round-trip through ISOP.
	for fn := 0; fn < 256; fn++ {
		f := bitvec.New(3)
		for i := 0; i < 8; i++ {
			if fn&(1<<uint(i)) != 0 {
				f.SetBit(i, true)
			}
		}
		s := ISOP(f)
		if !bitvec.Equal(s.TT(), f) {
			t.Fatalf("fn %02x: ISOP %v does not match", fn, s)
		}
	}
}

func TestISOPRoundTripRandomLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{4, 6, 8, 10, 12} {
		for trial := 0; trial < 10; trial++ {
			f := randomTT(rng, k)
			s := ISOP(f)
			if !bitvec.Equal(s.TT(), f) {
				t.Fatalf("k=%d trial=%d: round trip failed", k, trial)
			}
		}
	}
}

func TestISOPIrredundant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		f := randomTT(rng, 5)
		s := ISOP(f)
		// Removing any single cube must change the function.
		for i := range s.Cubes {
			reduced := SOP{NVars: s.NVars}
			reduced.Cubes = append(reduced.Cubes, s.Cubes[:i]...)
			reduced.Cubes = append(reduced.Cubes, s.Cubes[i+1:]...)
			if bitvec.Equal(reduced.TT(), f) {
				t.Fatalf("trial %d: cube %d is redundant in %v", trial, i, s)
			}
		}
	}
}

func TestISOPConstants(t *testing.T) {
	c0 := ISOP(bitvec.Const(4, false))
	if len(c0.Cubes) != 0 {
		t.Fatalf("const0 ISOP = %v", c0)
	}
	c1 := ISOP(bitvec.Const(4, true))
	if len(c1.Cubes) != 1 || c1.Cubes[0].NumLits() != 0 {
		t.Fatalf("const1 ISOP = %v", c1)
	}
}

func TestFactorPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{3, 4, 5, 6, 8} {
		for trial := 0; trial < 20; trial++ {
			f := randomTT(rng, k)
			e := Factor(ISOP(f))
			// Evaluate the form on every minterm.
			for i := 0; i < f.NumBits(); i++ {
				if evalForm(e, i) != f.Bit(i) {
					t.Fatalf("k=%d trial=%d minterm %d: %s", k, trial, i, e)
				}
			}
		}
	}
}

// evalForm evaluates the form on one minterm of its variables with its
// own operand stack.
func evalForm(f Form, minterm int) bool {
	var stack []bool
	for _, c := range f {
		x := int(c &^ codeKind)
		switch c & codeKind {
		case codeConst:
			stack = append(stack, x != 0)
		case codeLit:
			stack = append(stack, minterm&(1<<uint(x>>1)) != 0 != (x&1 != 0))
		default:
			and := c&codeKind == codeAnd
			r := and
			for _, a := range stack[len(stack)-x:] {
				if a != and {
					r = a // a false operand decides an AND, a true one an OR
				}
			}
			stack = append(stack[:len(stack)-x], r)
		}
	}
	if len(stack) != 1 {
		panic("malformed form")
	}
	return stack[0]
}

func TestFactorSharesLiterals(t *testing.T) {
	// f = a*b + a*c should factor to a*(b+c): 3 literals, not 4.
	f := bitvec.Or(
		bitvec.And(bitvec.Var(3, 0), bitvec.Var(3, 1)),
		bitvec.And(bitvec.Var(3, 0), bitvec.Var(3, 2)))
	e := Factor(ISOP(f))
	if e.NumLiterals() > 3 {
		t.Fatalf("factored form %s has %d literals, want <= 3", e, e.NumLiterals())
	}
}

func TestFactorTTPicksMinimalPhase(t *testing.T) {
	// FactorTT must return min(literals(f), literals(!f)) and a correct
	// inversion flag on random functions.
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		f := randomTT(rng, 5)
		e, inv := new(Workspace).FactorTT(f)
		pos := Factor(ISOP(f)).NumLiterals()
		neg := Factor(ISOP(bitvec.Not(f))).NumLiterals()
		want := pos
		if neg < pos {
			want = neg
		}
		if e.NumLiterals() != want {
			t.Fatalf("trial %d: got %d literals, want %d", trial, e.NumLiterals(), want)
		}
		for i := 0; i < f.NumBits(); i++ {
			if (evalForm(e, i) != inv) != f.Bit(i) {
				t.Fatalf("trial %d minterm %d: wrong function", trial, i)
			}
		}
	}
}

func TestBuildAIGMatchesTT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{3, 5, 7} {
		for trial := 0; trial < 10; trial++ {
			f := randomTT(rng, k)
			e, inv := new(Workspace).FactorTT(f)
			g := aig.New()
			leaves := make([]aig.Lit, k)
			for i := range leaves {
				leaves[i] = g.AddInput("x")
			}
			out, _ := new(Workspace).BuildAIG(g, e, leaves, -1)
			g.AddOutput(out.NotIf(inv), "f")
			for i := 0; i < f.NumBits(); i++ {
				in := make([]bool, k)
				for v := 0; v < k; v++ {
					in[v] = i&(1<<uint(v)) != 0
				}
				if g.EvalUint(in)[0] != f.Bit(i) {
					t.Fatalf("k=%d trial=%d minterm %d mismatch", k, trial, i)
				}
			}
		}
	}
}

func TestBuildAIGBalancedDepth(t *testing.T) {
	// An 8-literal conjunction must be built with depth 3, not 7.
	g := aig.New()
	leaves := make([]aig.Lit, 8)
	var f Form
	for i := range leaves {
		leaves[i] = g.AddInput("x")
		f = append(f, codeLit|uint16(i)<<1)
	}
	f = append(f, codeAnd|8)
	out, _ := new(Workspace).BuildAIG(g, f, leaves, -1)
	g.AddOutput(out, "f")
	if lv := g.RecomputeLevels(); lv != 3 {
		t.Fatalf("depth = %d, want 3", lv)
	}
}

// TestBuildAIGLimit builds factored forms on clones of one graph, each
// speculating on the same root, over the reconvergent cones of the
// registered designs and of random graphs. A build with a limit either
// completes with the literal and graph the unlimited build gives, or
// stops above the limit, and then the unlimited build costs more than the
// limit, and at least what the stopped build had cost.
func TestBuildAIGLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var graphs []*aig.AIG
	for _, name := range []string{"alu8", "miniaes2", "mont8"} {
		d, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, d.Build().Cleanup())
	}
	for i := 0; i < 4; i++ {
		graphs = append(graphs, randomGraph(rng, 8, 200))
	}
	var w Workspace
	var lits []aig.Lit
	completed, stopped := 0, 0
	for gi, g := range graphs {
		g.RecomputeRefs()
		g.RecomputeLevels()
		var cones cut.Cones
		cones.Reset(g)
		live := g.LiveAnds()
		for trial := 0; trial < 60; trial++ {
			root := live[rng.Intn(len(live))]
			leaves := cones.ReconvCut(root, 4+rng.Intn(7))
			if len(leaves) < 2 || slices.Contains(leaves, root) {
				continue
			}
			tt, ok := cones.TT(root, leaves)
			if !ok {
				continue
			}
			form, _ := w.FactorTTFast(tt)
			form = slices.Clone(form)
			lits = lits[:0]
			for _, l := range leaves {
				lits = append(lits, aig.MakeLit(l, false))
			}
			full := g.Clone()
			full.BeginSpeculate(root)
			want, _ := w.BuildAIG(full, form, lits, -1)
			cost := full.SpeculationCost()
			limit := rng.Intn(cost + 2)
			bounded := g.Clone()
			bounded.BeginSpeculate(root)
			got, ok := w.BuildAIG(bounded, form, lits, limit)
			switch {
			case ok && (got != want || !sameGraph(bounded, full)):
				t.Fatalf("graph %d root %d: build within %d gave %v, unlimited %v, or another graph", gi, root, limit, got, want)
			case ok:
				completed++
			case cost <= limit || bounded.SpeculationCost() <= limit || bounded.SpeculationCost() > cost:
				t.Fatalf("graph %d root %d: build stopped at cost %d within %d, unlimited cost %d",
					gi, root, bounded.SpeculationCost(), limit, cost)
			default:
				stopped++
			}
		}
	}
	t.Logf("%d builds completed and %d stopped", completed, stopped)
	if completed == 0 || stopped == 0 {
		t.Fatalf("%d builds completed and %d stopped; want both", completed, stopped)
	}
}

// sameGraph reports whether a and b hold the same nodes with the same
// fanins and reference counts.
func sameGraph(a, b *aig.AIG) bool {
	if a.NumNodesRaw() != b.NumNodesRaw() {
		return false
	}
	for id := 0; id < a.NumNodesRaw(); id++ {
		if a.Kind(id) != b.Kind(id) || a.Ref(id) != b.Ref(id) {
			return false
		}
		if a.IsAnd(id) && (a.Fanin0(id) != b.Fanin0(id) || a.Fanin1(id) != b.Fanin1(id)) {
			return false
		}
	}
	return true
}

// randomGraph builds a random graph of nand ANDs over nin inputs.
func randomGraph(rng *rand.Rand, nin, nand int) *aig.AIG {
	g := aig.New()
	var lits []aig.Lit
	for i := 0; i < nin; i++ {
		lits = append(lits, g.AddInput("x"))
	}
	pick := func() aig.Lit { return lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0) }
	for i := 0; i < nand; i++ {
		lits = append(lits, g.And(pick(), pick()))
	}
	for i := 0; i < 6; i++ {
		g.AddOutput(lits[len(lits)-1-i], "f")
	}
	return g.Cleanup()
}

// Property: ISOP of any 6-var function round-trips.
func TestQuickISOPRoundTrip(t *testing.T) {
	f := func(w uint64) bool {
		tt := bitvec.New(6)
		for i := 0; i < 64; i++ {
			if w&(1<<uint(i)) != 0 {
				tt.SetBit(i, true)
			}
		}
		return bitvec.Equal(ISOP(tt).TT(), tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: factored form never has more literals than the SOP.
func TestQuickFactorNoWorseThanSOP(t *testing.T) {
	f := func(w uint64) bool {
		tt := bitvec.New(6)
		for i := 0; i < 64; i++ {
			if w&(1<<uint(i)) != 0 {
				tt.SetBit(i, true)
			}
		}
		s := ISOP(tt)
		return Factor(s).NumLiterals() <= s.NumLiterals()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkspaceReuse checks that a reused workspace computes what a fresh
// one does: the same covers and the same factored forms. So a form is a
// function of its table alone, which lets a library share it between
// passes.
func TestWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var w Workspace
	for trial := 0; trial < 60; trial++ {
		f := randomTT(rng, 1+trial%12)
		for _, compl := range []bool{false, true} {
			var fresh Workspace
			want := append([]Cube(nil), fresh.cover(f, compl)...)
			got := append([]Cube(nil), w.cover(f, compl)...)
			if !slices.Equal(got, want) {
				t.Fatalf("%v compl=%v: reused workspace cover %v, fresh %v", f, compl, got, want)
			}
			w.factor(got)
			if e := Factor(SOP{NVars: f.NumVars(), Cubes: want}); !slices.Equal(w.form, e) {
				t.Fatalf("%v compl=%v: reused workspace factored %v, fresh %v", f, compl, w.form, e)
			}
		}
		fe, finv := new(Workspace).FactorTTFast(f)
		if e, inv := w.FactorTTFast(f); inv != finv || !slices.Equal(e, fe) {
			t.Fatalf("%v: reused workspace FactorTTFast %v (inv=%v), fresh %v (inv=%v)", f, e, inv, fe, finv)
		}
	}
}

func TestWorkspaceAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := randomTT(rng, 10)
	var w Workspace
	w.cover(f, false)
	if n := testing.AllocsPerRun(20, func() {
		w.cover(f, false)
		w.cover(f, true)
	}); n != 0 {
		t.Errorf("ISOP cover allocates %v times per call pair, want 0", n)
	}

	// Factoring emits into the workspace's own forms: once they have
	// grown, neither phase choice allocates.
	f8 := randomTT(rng, 8)
	w.FactorTT(f8)
	w.FactorTTFast(f)
	if n := testing.AllocsPerRun(20, func() {
		w.FactorTT(f8)
		w.FactorTTFast(f)
	}); n != 0 {
		t.Errorf("FactorTT and FactorTTFast allocate %v times per call pair, want 0", n)
	}

	// Rebuilding a factored form that already exists in the graph only
	// hits the structural hash: BuildAIG itself must not allocate.
	g := aig.New()
	leaves := make([]aig.Lit, 8)
	for i := range leaves {
		leaves[i] = g.AddInput("x")
	}
	e, _ := w.FactorTT(f8)
	w.BuildAIG(g, e, leaves, -1)
	if n := testing.AllocsPerRun(20, func() { w.BuildAIG(g, e, leaves, -1) }); n != 0 {
		t.Errorf("BuildAIG allocates %v times per call, want 0", n)
	}
}

// FuzzISOP checks the word-level ISOP on arbitrary tables of up to 8
// variables: the cover computes the function, a workspace that just
// covered another function gives the same cover as a fresh one, and the
// postfix form FactorTT emits computes the function in the phase it
// reports.
func FuzzISOP(f *testing.F) {
	f.Add(uint8(4), uint64(0x6996), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(8), uint64(0x8000000000000001), ^uint64(0), uint64(0), uint64(0x0123456789abcdef))
	f.Add(uint8(0), uint64(1), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(7), ^uint64(0), ^uint64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, kRaw uint8, w0, w1, w2, w3 uint64) {
		k := int(kRaw) % 9
		tt := bitvec.New(k)
		for i, x := range []uint64{w0, w1, w2, w3}[:bitvec.WordsFor(k)] {
			for b := 0; b < 64 && 64*i+b < tt.NumBits(); b++ {
				tt.SetBit(64*i+b, x>>uint(b)&1 != 0)
			}
		}
		s := ISOP(tt)
		if !bitvec.Equal(s.TT(), tt) {
			t.Fatalf("ISOP %v does not compute %v", s, tt)
		}
		var w Workspace
		w.cover(bitvec.Not(tt), false)
		if got := w.cover(tt, false); !slices.Equal(got, s.Cubes) {
			t.Fatalf("reused workspace cover %v, fresh %v", got, s.Cubes)
		}
		e, inv := w.FactorTT(tt)
		for m := 0; m < tt.NumBits(); m++ {
			if evalForm(e, m) != (tt.Bit(m) != inv) {
				t.Fatalf("factored form %v (inv=%v) of %v wrong on minterm %d", e, inv, tt, m)
			}
		}
	})
}

func BenchmarkISOP8Vars(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := randomTT(rng, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ISOP(f)
	}
}

func BenchmarkFactor10Vars(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := randomTT(rng, 10)
	s := ISOP(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Factor(s)
	}
}
