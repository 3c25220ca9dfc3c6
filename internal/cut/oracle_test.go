package cut

import (
	"math/rand"
	"slices"
	"testing"

	"flowgen/internal/aig"
	"flowgen/internal/circuits"
)

// reconvCutOracle is ReconvCut as it was before the cut kept each leaf's
// fanins and sorted its leaves in place: a sorted id list kept with
// slices.BinarySearch, Insert and Delete, every leaf's fanins resolved
// again in every round, and its own marks. (It kept leaves and cone
// nodes under two flags, but only ever read them together.) It is the
// oracle ReconvCut is held to: the same leaves in the same order.
func reconvCutOracle(g *aig.AIG, root, k int) []int {
	if !g.IsAnd(root) {
		return []int{root}
	}
	marked := map[int]bool{root: true} // the leaves and the cone
	var leaves []int
	add := func(id int) {
		if marked[id] {
			return
		}
		marked[id] = true
		i, _ := slices.BinarySearch(leaves, id)
		leaves = slices.Insert(leaves, i, id)
	}
	add(g.Fanin0(root).Node())
	add(g.Fanin1(root).Node())
	for {
		best, bestCost := -1, 3
		for _, l := range leaves {
			if !g.IsAnd(l) {
				continue
			}
			cost := -1
			for _, f := range [2]aig.Lit{g.Fanin0(l), g.Fanin1(l)} {
				if !marked[f.Node()] {
					cost++
				}
			}
			if cost < bestCost {
				best, bestCost = l, cost
			}
		}
		if best < 0 || len(leaves)+bestCost > k {
			break
		}
		i, _ := slices.BinarySearch(leaves, best)
		leaves = slices.Delete(leaves, i, i+1)
		add(g.Fanin0(best).Node())
		add(g.Fanin1(best).Node())
	}
	return leaves
}

// checkReconvCut fails the test unless cones gives root the oracle's cut
// at width k, and returns that cut.
func checkReconvCut(t *testing.T, name string, cones *Cones, g *aig.AIG, root, k int) []int {
	t.Helper()
	got, want := cones.ReconvCut(root, k), reconvCutOracle(g, root, k)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: node %d, k=%d: ReconvCut %v, oracle %v", name, root, k, got, want)
	}
	return want
}

// commitReplacement replaces a random canonical, referenced AND node of g
// with the AND of two leaves of its reconvergent cut, as refactoring
// commits a rebuilt cone: the cut is taken inside the speculation, on a
// workspace that outlives the commit, and the replacement may hash to a
// node that is replaced later, so resolution chains form. Each cut taken
// is checked against the oracle. It reports whether it committed.
func commitReplacement(t *testing.T, name string, cones *Cones, g *aig.AIG, rng *rand.Rand) bool {
	t.Helper()
	id := rng.Intn(g.NumNodesRaw())
	if !g.IsAnd(id) || g.Ref(id) == 0 || g.Resolve(aig.MakeLit(id, false)) != aig.MakeLit(id, false) {
		return false
	}
	g.BeginSpeculate(id)
	leaves := checkReconvCut(t, name, cones, g, id, 3+rng.Intn(8))
	a := aig.MakeLit(leaves[rng.Intn(len(leaves))], rng.Intn(2) == 0)
	b := aig.MakeLit(leaves[rng.Intn(len(leaves))], rng.Intn(2) == 0)
	lit := g.And(a, b)
	if lit.Node() == id {
		g.AbortSpeculate(id)
		return false
	}
	g.CommitSpeculate(id, lit)
	return true
}

// checkAllRoots checks every AND node of g, replaced or not, at width k.
func checkAllRoots(t *testing.T, name string, cones *Cones, g *aig.AIG, k int) {
	t.Helper()
	for id := range g.NumNodesRaw() {
		if g.IsAnd(id) {
			checkReconvCut(t, name, cones, g, id, k)
		}
	}
}

// FuzzReconvCutMatchesOracle holds ReconvCut to its oracle on random
// graphs, random roots and widths from 3 to 12, and then on the same
// graphs while replacements are committed into them, as refactoring's
// mid-pass graphs carry: fanins then resolve through replacement chains
// to nodes the workspace saw under other ids in earlier calls.
func FuzzReconvCutMatchesOracle(f *testing.F) {
	for seed := range int64(6) {
		f.Add(seed, uint8(4+2*seed), uint16(40+90*seed), uint8(8*seed))
	}
	f.Add(int64(99), uint8(16), uint16(600), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, nin uint8, nand uint16, commits uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := buildRandom(rng, 1+int(nin)%16, 1+int(nand)%800)
		cones := NewCones(g)
		roots := func(name string) {
			for range 64 {
				root, k := rng.Intn(g.NumNodesRaw()), 3+rng.Intn(10)
				checkReconvCut(t, name, cones, g, root, k)
			}
		}
		roots("random graph")
		for range int(commits) % 64 {
			if commitReplacement(t, "mid-pass graph", cones, g, rng) {
				roots("mid-pass graph")
			}
		}
	})
}

// TestReconvCutMatchesOracleOnDesigns holds ReconvCut to its oracle at
// every AND node of the designs the labeling benchmarks use, at the
// widths restructure (8) and refactor (10) take, on each canonical graph
// and after replacements were committed into it.
func TestReconvCutMatchesOracleOnDesigns(t *testing.T) {
	for _, design := range []string{"alu8", "miniaes2", "mont8"} {
		d, err := circuits.ByName(design)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Build().Cleanup()
		cones := NewCones(g)
		for _, k := range []int{8, 10} {
			checkAllRoots(t, design, cones, g, k)
		}
		rng := rand.New(rand.NewSource(1))
		for range 200 {
			commitReplacement(t, design+" mid-pass", cones, g, rng)
		}
		for _, k := range []int{8, 10} {
			checkAllRoots(t, design+" mid-pass", cones, g, k)
		}
	}
}
