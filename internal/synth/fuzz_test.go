package synth

import (
	"math/rand"
	"testing"

	"flowgen/internal/aig"
	"flowgen/internal/flow"
	"flowgen/internal/rewrite"
)

// fuzzAIG builds a small graph from fuzz bytes: the first byte picks 1–8
// PIs, each following pair of bytes one AND of two earlier literals (up
// to 150), and the last four literals drive the outputs.
func fuzzAIG(data []byte) *aig.AIG {
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
		x := lits[int(a>>1)%len(lits)].NotIf(a&1 != 0)
		y := lits[int(b>>1)%len(lits)].NotIf(b&1 != 0)
		lits = append(lits, g.And(x, y))
	}
	for i := 0; i < 4 && i < len(lits); i++ {
		g.AddOutput(lits[len(lits)-1-i], "o")
	}
	return g
}

// FuzzMemoVsDirect checks the memoized engine on arbitrary small graphs:
// it labels a batch of m=1 flows in two EvaluateAll calls, the second on
// the factoring library and memo tables the first warmed, and both halves
// must equal the direct path; every flow must preserve the graph's
// function.
func FuzzMemoVsDirect(f *testing.F) {
	f.Add(uint64(1), uint8(4), []byte{3, 0, 2, 4, 7, 9, 10, 12, 1, 14, 17, 16, 5})
	f.Add(uint64(7), uint8(8), []byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Add(uint64(3), uint8(2), []byte{0})
	space := flow.NewSpace(flow.DefaultAlphabet, 1)
	f.Fuzz(func(t *testing.T, seed uint64, nflows uint8, data []byte) {
		design := fuzzAIG(data)
		flows := space.RandomUnique(rand.New(rand.NewSource(int64(seed))), 2+int(nflows)%6)
		eng := NewEngine(design, space)
		half := len(flows) / 2
		memo, err := eng.EvaluateAll(flows[:half], nil)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := eng.EvaluateAll(flows[half:], nil)
		if err != nil {
			t.Fatal(err)
		}
		memo = append(memo, warm...)
		direct := NewEngine(design, space)
		direct.Memo = false
		want, err := direct.EvaluateAll(flows, nil)
		if err != nil {
			t.Fatal(err)
		}
		sig := design.SimSignature(99, 2)
		for i, f := range flows {
			if memo[i] != want[i] {
				t.Fatalf("flow %s (warm call: %v): memoized %+v, direct %+v", f.String(space), i >= half, memo[i], want[i])
			}
			g, _, err := rewrite.Apply(design.Cleanup(), f.Names(space))
			if err != nil {
				t.Fatal(err)
			}
			if !aig.SigEqual(sig, g.SimSignature(99, 2)) {
				t.Fatalf("flow %s changed the function", f.String(space))
			}
		}
	})
}
