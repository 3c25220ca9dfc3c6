package cut

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"flowgen/internal/aig"
	"flowgen/internal/bitvec"
	"flowgen/internal/circuits"
)

// buildRandom constructs a random DAG for testing.
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
	for i := 0; i < 3 && i < len(lits); i++ {
		g.AddOutput(lits[len(lits)-1-i], "o")
	}
	g.RecomputeRefs()
	return g
}

// enumerate returns a fresh Set of g's cuts.
func enumerate(g *aig.AIG, k, maxCuts int) *Set {
	s := new(Set)
	s.Enumerate(g, k, maxCuts)
	return s
}

// ints converts cut leaves to the []int that Cones takes.
func ints(leaves []int32) []int {
	out := make([]int, len(leaves))
	for i, l := range leaves {
		out[i] = int(l)
	}
	return out
}

// isTrivial reports whether c is the trivial cut {id}.
func isTrivial(c *Cut, id int) bool {
	return len(c.Leaves()) == 1 && int(c.Leaves()[0]) == id
}

// verifyCutTT checks the truth table of cut i of root against the cone
// table of root over the cut's leaves.
func verifyCutTT(t *testing.T, g *aig.AIG, s *Set, root, i int) {
	t.Helper()
	c, k := &s.Of(root)[i], s.K
	leaves := ints(c.Leaves())
	tt, ok := NewCones(g).TT(root, leaves)
	if !ok {
		t.Fatalf("cut %v of node %d is not a valid cone boundary", leaves, root)
	}
	// The enumerated TT lives over k vars but depends only on the first
	// len(Leaves); the cone TT lives over len(Leaves).
	for m := 0; m < 1<<k; m++ {
		if s.TT(root, i).Bit(m) != tt.Bit(m&(1<<len(leaves)-1)) {
			t.Fatalf("node %d cut %v: tt=%v, cone tt %v", root, leaves, s.TT(root, i), tt)
		}
	}
}

func TestEnumerateSmallAdder(t *testing.T) {
	g := aig.New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	cin := g.AddInput("c")
	sum := g.Xor(g.Xor(a, b), cin)
	cout := g.Maj(a, b, cin)
	g.AddOutput(sum, "s")
	g.AddOutput(cout, "co")
	g.RecomputeRefs()

	s := enumerate(g, 4, 16)
	// Every live AND node must have at least the trivial cut plus the
	// fanin-pair cut.
	g.ForEachLiveAnd(func(id int) {
		cs := s.Of(id)
		if len(cs) < 2 {
			t.Fatalf("node %d has %d cuts", id, len(cs))
		}
		for i := range cs {
			c := &cs[i]
			if len(c.Leaves()) > 4 {
				t.Fatalf("cut too wide: %v", c.Leaves())
			}
			if !slices.IsSorted(c.Leaves()) {
				t.Fatalf("cut not sorted: %v", c.Leaves())
			}
			if isTrivial(c, id) {
				continue // trivial cut: TT is Var(0) by construction
			}
			verifyCutTT(t, g, s, id, i)
		}
	})
	// The sum node must have a cut {a,b,cin} whose function is XOR3.
	sumNode := sum.Node()
	foundXor3 := false
	for i, c := range s.Of(sumNode) {
		if len(c.Leaves()) == 3 {
			want := bitvec.Xor(bitvec.Xor(bitvec.Var(4, 0), bitvec.Var(4, 1)), bitvec.Var(4, 2))
			got := s.TT(sumNode, i)
			if sum.IsNeg() {
				got = bitvec.Not(got)
			}
			if bitvec.Equal(got, want) {
				foundXor3 = true
			}
		}
	}
	if !foundXor3 {
		t.Fatal("3-input XOR cut not found on sum node")
	}
}

func TestEnumerateTTsOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := buildRandom(rng, 6, 40)
		s := enumerate(g, 4, 12)
		g.ForEachLiveAnd(func(id int) {
			cs := s.Of(id)
			for i := range cs {
				if !isTrivial(&cs[i], id) {
					verifyCutTT(t, g, s, id, i)
				}
			}
		})
	}
}

func TestDominancePruning(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := buildRandom(rng, 6, 40)
	s := enumerate(g, 4, 16)
	g.ForEachLiveAnd(func(id int) {
		cs := s.Of(id)
		for i := range cs {
			for j := range cs {
				if i != j && dominates(&cs[i], &cs[j]) {
					t.Fatalf("node %d: cut %v dominates kept cut %v", id, cs[i].Leaves(), cs[j].Leaves())
				}
			}
		}
	})
}

func TestReconvCutBoundsAndValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		g := buildRandom(rng, 8, 120)
		cones := NewCones(g)
		for _, k := range []int{4, 8, 12} {
			g.ForEachLiveAnd(func(id int) {
				leaves := slices.Clone(cones.ReconvCut(id, k))
				if len(leaves) > k {
					t.Fatalf("reconv cut width %d > k=%d", len(leaves), k)
				}
				if _, ok := cones.TT(id, leaves); !ok {
					t.Fatalf("reconv cut %v of %d is not a boundary", leaves, id)
				}
			})
		}
	}
}

func TestReconvCutTTMatchesSimulation(t *testing.T) {
	// Build f = (a&b) | (c&d) and check the reconvergence cut TT of the
	// output node over {a,b,c,d}.
	g := aig.New()
	a, b := g.AddInput("a"), g.AddInput("b")
	c, d := g.AddInput("c"), g.AddInput("d")
	f := g.Or(g.And(a, b), g.And(c, d))
	g.AddOutput(f, "f")
	g.RecomputeRefs()
	cones := NewCones(g)
	leaves := cones.ReconvCut(f.Node(), 6)
	if len(leaves) != 4 {
		t.Fatalf("leaves = %v, want the 4 inputs", leaves)
	}
	tt, ok := cones.TT(f.Node(), leaves)
	if !ok {
		t.Fatal("invalid cone")
	}
	want := bitvec.Or(
		bitvec.And(bitvec.Var(4, 0), bitvec.Var(4, 1)),
		bitvec.And(bitvec.Var(4, 2), bitvec.Var(4, 3)))
	if f.IsNeg() {
		tt = bitvec.Not(tt)
	}
	if !bitvec.Equal(tt, want) {
		t.Fatalf("tt = %v want %v", tt, want)
	}
}

func TestConeNodesTopological(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := buildRandom(rng, 6, 60)
	cones := NewCones(g)
	g.ForEachLiveAnd(func(id int) {
		leaves := slices.Clone(cones.ReconvCut(id, 8))
		interior := cones.Nodes(id, leaves)
		if interior == nil {
			t.Fatalf("unbounded cone for %d / %v", id, leaves)
		}
		pos := map[int]int{}
		for i, n := range interior {
			pos[n] = i
		}
		if interior[len(interior)-1] != id {
			t.Fatal("root not last")
		}
		leafSet := map[int]bool{}
		for _, l := range leaves {
			leafSet[l] = true
		}
		for _, n := range interior {
			for _, fl := range [2]aig.Lit{g.Fanin0(n), g.Fanin1(n)} {
				fn := fl.Node()
				if leafSet[fn] {
					continue
				}
				fp, ok := pos[fn]
				if !ok || fp >= pos[n] {
					t.Fatalf("fanin %d of %d not earlier in cone order", fn, n)
				}
			}
		}
	})
}

// TestConesReuseMatchesFresh runs one Cones workspace over every node,
// for several k, and while the graph grows, and compares each result with
// a fresh workspace: the epoch-stamped marks must never leak from one
// call into the next.
func TestConesReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := buildRandom(rng, 10, 300)
	cones := NewCones(g)
	check := func() {
		g.ForEachLiveAnd(func(id int) {
			for _, k := range []int{4, 8, 10} {
				fresh := NewCones(g)
				want := slices.Clone(fresh.ReconvCut(id, k))
				got := slices.Clone(cones.ReconvCut(id, k))
				if !slices.Equal(got, want) {
					t.Fatalf("node %d k=%d: reused workspace cut %v, fresh %v", id, k, got, want)
				}
				wt, wok := fresh.TT(id, want)
				gt, gok := cones.TT(id, got)
				if wok != gok || wok && !bitvec.Equal(gt, wt) {
					t.Fatalf("node %d k=%d: reused workspace table %v/%v, fresh %v/%v", id, k, gt, gok, wt, wok)
				}
			}
		})
	}
	check()
	// Grow the graph after the workspace sized itself.
	lits := []aig.Lit{g.PI(0), g.PI(1), g.PO(0), g.PO(1)}
	for i := 0; i < 40; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	g.AddOutput(lits[len(lits)-1], "grown")
	check()
}

func TestConesAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := buildRandom(rng, 16, 600)
	ids := g.LiveAnds()
	cones := NewCones(g)
	pass := func() {
		for _, id := range ids {
			leaves := cones.ReconvCut(id, 10)
			cones.TT(id, leaves)
		}
	}
	pass()
	if n := testing.AllocsPerRun(5, pass); n != 0 {
		t.Fatalf("ReconvCut+TT over %d nodes allocate %v times, want 0", len(ids), n)
	}
}

// TestEnumerateAllocationsBounded pins the reuse: a Set that has held the
// cuts of a graph refills with those of a graph no larger, at any k,
// without allocating.
func TestEnumerateAllocationsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := buildRandom(rng, 16, 2000)
	small := buildRandom(rng, 16, 500)
	var s Set
	s.Enumerate(g, 4, 8)
	for _, run := range []struct {
		g       *aig.AIG
		k, cuts int
	}{{g, 4, 8}, {small, 4, 8}, {small, 6, 8}, {g, 4, 8}} {
		if n := testing.AllocsPerRun(3, func() { s.Enumerate(run.g, run.k, run.cuts) }); n != 0 {
			t.Fatalf("refilling a warm Set (k=%d) allocates %v times on a %d-node graph, want 0", run.k, n, run.g.NumNodesRaw())
		}
	}
}

// TestSetReuseMatchesFresh refills one Set with the cuts of graphs of
// different sizes and widths, and compares every node's cuts with a
// fresh Set's: nothing may leak from one fill into the next.
func TestSetReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Set
	for trial := 0; trial < 12; trial++ {
		g := buildRandom(rng, 4+rng.Intn(12), 50+rng.Intn(600))
		k, maxCuts := 2+rng.Intn(MaxK-1), 4+rng.Intn(10)
		s.Enumerate(g, k, maxCuts)
		fresh := enumerate(g, k, maxCuts)
		for id := 0; id < g.NumNodesRaw(); id++ {
			got, want := s.Of(id), fresh.Of(id)
			if len(got) != len(want) {
				t.Fatalf("trial %d node %d: reused Set has %d cuts, fresh %d", trial, id, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] || !bitvec.Equal(s.TT(id, i), fresh.TT(id, i)) {
					t.Fatalf("trial %d node %d cut %d: reused %v/%v, fresh %v/%v", trial, id, i,
						got[i].Leaves(), s.TT(id, i), want[i].Leaves(), fresh.TT(id, i))
				}
			}
		}
	}
}

func BenchmarkEnumerateK4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := buildRandom(rng, 16, 2000)
	var s Set
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Enumerate(g, 4, 8)
	}
}

func BenchmarkReconvCutK12(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := buildRandom(rng, 16, 2000)
	ids := g.LiveAnds()
	cones := NewCones(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cones.ReconvCut(ids[i%len(ids)], 12)
	}
}

// BenchmarkReconvCut times one reconvergent cut per operation, root by
// root over every AND node of the canonical graphs of the designs the
// labeling benchmarks use, at the widths restructure (8) and refactor
// (10) take, on one reused workspace as a pass uses it.
func BenchmarkReconvCut(b *testing.B) {
	for _, design := range []string{"alu8", "miniaes2", "mont8"} {
		d, err := circuits.ByName(design)
		if err != nil {
			b.Fatal(err)
		}
		g := d.Build().Cleanup()
		ids := g.LiveAnds()
		for _, k := range []int{8, 10} {
			b.Run(fmt.Sprintf("%s/k=%d", design, k), func(b *testing.B) {
				cones := NewCones(g)
				for _, id := range ids {
					cones.ReconvCut(id, k)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := range b.N {
					cones.ReconvCut(ids[i%len(ids)], k)
				}
			})
		}
	}
}
