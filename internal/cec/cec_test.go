package cec

import (
	"math/rand"
	"testing"
	"time"

	"flowgen/internal/aig"
	"flowgen/internal/circuits"
	"flowgen/internal/flow"
	"flowgen/internal/fraig"
	"flowgen/internal/rewrite"
)

func TestIdenticalCircuitsEquivalent(t *testing.T) {
	mk := func() *aig.AIG {
		g := aig.New()
		a, b, c := g.AddInput("a"), g.AddInput("b"), g.AddInput("c")
		g.AddOutput(g.Maj(a, b, c), "m")
		g.AddOutput(g.Xor(g.Xor(a, b), c), "s")
		return g
	}
	rep, err := Check(mk(), mk(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Equivalent {
		t.Fatalf("verdict %v", rep.Verdict)
	}
}

func TestStructurallyDifferentButEquivalent(t *testing.T) {
	// f = a&b | a&c  vs  f = a & (b|c): simulation agrees, SAT must prove.
	g1 := aig.New()
	a, b, c := g1.AddInput("a"), g1.AddInput("b"), g1.AddInput("c")
	g1.AddOutput(g1.Or(g1.And(a, b), g1.And(a, c)), "f")

	g2 := aig.New()
	a, b, c = g2.AddInput("a"), g2.AddInput("b"), g2.AddInput("c")
	g2.AddOutput(g2.And(a, g2.Or(b, c)), "f")

	rep, err := Check(g1, g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Equivalent {
		t.Fatalf("verdict %v", rep.Verdict)
	}
}

func TestInequivalentFoundWithCounterexample(t *testing.T) {
	// AND vs OR differ on (1,0).
	g1 := aig.New()
	a, b := g1.AddInput("a"), g1.AddInput("b")
	g1.AddOutput(g1.And(a, b), "f")
	g2 := aig.New()
	a, b = g2.AddInput("a"), g2.AddInput("b")
	g2.AddOutput(g2.Or(a, b), "f")

	rep, err := Check(g1, g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != NotEquivalent {
		t.Fatalf("verdict %v", rep.Verdict)
	}
	// Replay the counterexample on both circuits: they must differ.
	o1 := g1.EvalUint(rep.Counterexample)[rep.FailingOutput]
	o2 := g2.EvalUint(rep.Counterexample)[rep.FailingOutput]
	if o1 == o2 {
		t.Fatalf("counterexample %v does not distinguish the circuits", rep.Counterexample)
	}
}

func TestSubtleInequivalenceNeedsSAT(t *testing.T) {
	// Two circuits differing on exactly one minterm of 8 inputs: random
	// simulation will often miss it; SAT must find it.
	mk := func(extra bool) *aig.AIG {
		g := aig.New()
		in := make([]aig.Lit, 8)
		for i := range in {
			in[i] = g.AddInput("x")
		}
		// f = parity of inputs.
		f := in[0]
		for i := 1; i < 8; i++ {
			f = g.Xor(f, in[i])
		}
		if extra {
			// Flip f on the single minterm x = 10101010.
			m := aig.ConstTrue
			for i := 0; i < 8; i++ {
				l := in[i]
				if i%2 == 0 {
					l = l.Not()
				}
				m = g.And(m, l)
			}
			f = g.Xor(f, m)
		}
		g.AddOutput(f, "f")
		return g
	}
	rep, err := Check(mk(false), mk(true), Options{SimWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != NotEquivalent {
		t.Fatalf("verdict %v (SAT must expose the single differing minterm)", rep.Verdict)
	}
	o1 := mk(false).EvalUint(rep.Counterexample)[0]
	o2 := mk(true).EvalUint(rep.Counterexample)[0]
	if o1 == o2 {
		t.Fatal("counterexample invalid")
	}
}

func TestInterfaceMismatchError(t *testing.T) {
	g1 := aig.New()
	g1.AddInput("a")
	g1.AddOutput(aig.ConstFalse, "f")
	g2 := aig.New()
	g2.AddInput("a")
	g2.AddInput("b")
	g2.AddOutput(aig.ConstFalse, "f")
	if _, err := Check(g1, g2, Options{}); err == nil {
		t.Fatal("expected interface mismatch error")
	}
}

// TestFlowsProvenEquivalent is the headline use: every synthesis flow
// applied to a real design is PROVEN function-preserving by SAT, not
// just simulated.
func TestFlowsProvenEquivalent(t *testing.T) {
	design, err := circuits.ByName("alu8")
	if err != nil {
		t.Fatal(err)
	}
	space := flow.NewSpace(flow.DefaultAlphabet, 1)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2; trial++ {
		f := space.Random(rng)
		golden := design.Build()
		optimized, _, err := rewrite.Apply(design.Build(), f.Names(space))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Check(golden, optimized, Options{MaxConflicts: 500000})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != Equivalent {
			t.Fatalf("flow %q: %v (output %d)", f.String(space), rep.Verdict, rep.FailingOutput)
		}
		t.Logf("flow %q proven equivalent (%d conflicts)", f.String(space), rep.SATConflicts)
	}
}

// TestCheckDesignFamilies proves one paper-space flow on each design
// family: arithmetic (alu8), AES (miniaes2) and Montgomery (mont8).
func TestCheckDesignFamilies(t *testing.T) {
	space := flow.PaperSpace()
	for i, name := range []string{"alu8", "miniaes2", "mont8"} {
		if name == "mont8" && testing.Short() {
			t.Log("mont8 skipped under -short")
			continue
		}
		d, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		f := space.Random(rand.New(rand.NewSource(int64(i + 1))))
		optimized, _, err := rewrite.Apply(d.Build(), f.Names(space))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		rep, err := Check(d.Build(), optimized, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != Equivalent {
			t.Fatalf("%s, flow %q: %v (output %d)", name, f.String(space), rep.Verdict, rep.FailingOutput)
		}
		t.Logf("%s proven equivalent in %v (%d SAT conflicts)", name, time.Since(start), rep.SATConflicts)
	}
}

// fuzzAIG builds a small graph from fuzz bytes, as synth's fuzzAIG
// does: the first byte picks 1–8 PIs, each following pair of bytes one
// AND of two earlier literals (up to 150), and the last four literals
// drive the outputs. The flip-th AND, if there is one, gets its first
// fanin complemented.
func fuzzAIG(data []byte, flip int) *aig.AIG {
	g := aig.New()
	npi := 1
	if len(data) > 0 {
		npi += int(data[0]) % 8
		data = data[1:]
	}
	lits := make([]aig.Lit, 0, npi+150)
	for i := 0; i < npi; i++ {
		lits = append(lits, g.AddInput("i"))
	}
	for i := 0; i+1 < len(data) && i < 300; i += 2 {
		a, b := data[i], data[i+1]
		x := lits[int(a>>1)%len(lits)].NotIf(a&1 != 0 != (i/2 == flip))
		y := lits[int(b>>1)%len(lits)].NotIf(b&1 != 0)
		lits = append(lits, g.And(x, y))
	}
	for i := 0; i < 4 && i < len(lits); i++ {
		g.AddOutput(lits[len(lits)-1-i], "o")
	}
	return g
}

// exhaustive returns g's output words over all minterms of its (at most
// eight) inputs.
func exhaustive(g *aig.AIG) []uint64 {
	pats := make([][]uint64, g.NumPIs())
	for i := range pats {
		pats[i] = make([]uint64, 4)
		for m := 0; m < 256; m++ {
			pats[i][m/64] |= uint64(m>>i&1) << (m % 64)
		}
	}
	var words []uint64
	for _, o := range g.Simulate(pats) {
		words = append(words, o...)
	}
	return words
}

// FuzzCheck compares the checker with exhaustive simulation on small
// random graphs, each paired with a flow's result (equivalent) or with a
// copy that has one AND fanin complemented (usually not). One simulation
// word leaves aliasing candidates for SAT to refute.
func FuzzCheck(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{3, 0, 2, 4, 7, 9, 10, 12, 1, 14, 17, 16, 5})
	f.Add(uint64(2), uint8(3), []byte{3, 0, 2, 4, 7, 9, 10, 12, 1, 14, 17, 16, 5})
	f.Add(uint64(7), uint8(0), []byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Add(uint64(7), uint8(9), []byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Add(uint64(3), uint8(1), []byte{0})
	space := flow.NewSpace(flow.DefaultAlphabet, 1)
	f.Fuzz(func(t *testing.T, seed uint64, mode uint8, data []byte) {
		g := fuzzAIG(data, -1)
		var h *aig.AIG
		if mode&1 == 0 {
			fl := space.Random(rand.New(rand.NewSource(int64(seed))))
			var err error
			if h, _, err = rewrite.Apply(fuzzAIG(data, -1), fl.Names(space)); err != nil {
				t.Fatal(err)
			}
		} else {
			h = fuzzAIG(data, int(mode>>1))
		}
		rep, err := Check(g, h, Options{SimWords: 1, Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		want := NotEquivalent
		if aig.SigEqual(exhaustive(g), exhaustive(h)) {
			want = Equivalent
		}
		if rep.Verdict != want {
			t.Fatalf("verdict %v, exhaustive simulation says %v", rep.Verdict, want)
		}
		if want == NotEquivalent {
			o := rep.FailingOutput
			if g.EvalUint(rep.Counterexample)[o] == h.EvalUint(rep.Counterexample)[o] {
				t.Fatalf("counterexample %v does not distinguish output %d", rep.Counterexample, o)
			}
		}
		red, st := fraig.Reduce(g, fraig.Options{SimWords: 1, Seed: int64(seed)})
		if !aig.SigEqual(exhaustive(g), exhaustive(red)) {
			t.Fatalf("fraig.Reduce changed the function (stats %+v)", st)
		}
	})
}

func BenchmarkCECALU8AfterFlow(b *testing.B) {
	design, _ := circuits.ByName("alu8")
	space := flow.NewSpace(flow.DefaultAlphabet, 1)
	f := space.Random(rand.New(rand.NewSource(1)))
	golden := design.Build()
	optimized, _, _ := rewrite.Apply(design.Build(), f.Names(space))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Check(golden, optimized, Options{})
		if err != nil || rep.Verdict != Equivalent {
			b.Fatalf("%v %v", rep.Verdict, err)
		}
	}
}
