package rewrite

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"flowgen/internal/aig"
	"flowgen/internal/bitvec"
	"flowgen/internal/circuits"
	"flowgen/internal/sop"
)

// raceEnabled reports a race-detector build (race_test.go sets it).
var raceEnabled bool

// buildRandom constructs a random, somewhat redundant DAG.
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
	for i := 0; i < 6 && i < len(lits); i++ {
		g.AddOutput(lits[len(lits)-1-i], "o")
	}
	g.RecomputeRefs()
	return g
}

// buildRedundant builds a circuit with obvious redundancy that rewriting
// should shrink: f = (a&b)|(a&c)|(a&d) duplicated under different shapes.
func buildRedundant() *aig.AIG {
	g := aig.New()
	a, b := g.AddInput("a"), g.AddInput("b")
	c, d := g.AddInput("c"), g.AddInput("d")
	f1 := g.Or(g.Or(g.And(a, b), g.And(a, c)), g.And(a, d))
	// Same function, different structure.
	f2 := g.Or(g.And(a, g.Or(b, c)), g.And(d, a))
	g.AddOutput(f1, "f1")
	g.AddOutput(f2, "f2")
	g.RecomputeRefs()
	return g
}

func checkPreserves(t *testing.T, name string, tr Transform, g *aig.AIG) *aig.AIG {
	t.Helper()
	before := g.SimSignature(1234, 4)
	ng := tr(g)
	after := ng.SimSignature(1234, 4)
	if !aig.SigEqual(before, after) {
		t.Fatalf("%s changed circuit function", name)
	}
	return ng
}

func TestAllTransformsPreserveFunctionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		for _, name := range Names {
			tr, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g := buildRandom(rng, 8, 150)
			checkPreserves(t, name, tr, g)
		}
	}
}

func TestBalanceReducesDepthOfChain(t *testing.T) {
	g := aig.New()
	in := make([]aig.Lit, 16)
	for i := range in {
		in[i] = g.AddInput("x")
	}
	acc := in[0]
	for i := 1; i < len(in); i++ {
		acc = g.And(acc, in[i])
	}
	g.AddOutput(acc, "f")
	g.RecomputeRefs()
	if lv := g.RecomputeLevels(); lv != 15 {
		t.Fatalf("chain depth = %d, want 15", lv)
	}
	ng := checkPreserves(t, "balance", Balance, g)
	if lv := ng.RecomputeLevels(); lv != 4 {
		t.Fatalf("balanced depth = %d, want 4", lv)
	}
}

func TestBalancePreservesSharing(t *testing.T) {
	// A multi-fanout node must not be duplicated by balancing.
	g := aig.New()
	a, b, c, d := g.AddInput("a"), g.AddInput("b"), g.AddInput("c"), g.AddInput("d")
	sh := g.And(a, b)
	f1 := g.And(sh, c)
	f2 := g.And(sh, d)
	g.AddOutput(f1, "f1")
	g.AddOutput(f2, "f2")
	g.RecomputeRefs()
	ng := checkPreserves(t, "balance", Balance, g)
	if n := ng.NumAnds(); n != 3 {
		t.Fatalf("balance broke sharing: %d ANDs, want 3", n)
	}
}

func TestRewriteShrinksRedundantLogic(t *testing.T) {
	g := buildRedundant()
	before := g.NumAnds()
	ng := checkPreserves(t, "rewrite", func(g *aig.AIG) *aig.AIG { return Rewrite(g, false) }, g)
	if ng.NumAnds() > before {
		t.Fatalf("rewrite grew the graph: %d -> %d", before, ng.NumAnds())
	}
	if ng.NumAnds() >= before {
		t.Logf("note: rewrite kept size %d (structure already compact)", before)
	}
}

func TestRewriteNeverIncreasesNodeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		g := buildRandom(rng, 7, 120)
		before := g.NumAnds()
		ng := Rewrite(g, false)
		if ng.NumAnds() > before {
			t.Fatalf("trial %d: rewrite grew graph %d -> %d", trial, before, ng.NumAnds())
		}
	}
}

func TestRefactorNeverIncreasesNodeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		g := buildRandom(rng, 7, 120)
		before := g.NumAnds()
		ng := Refactor(g, false)
		if ng.NumAnds() > before {
			t.Fatalf("trial %d: refactor grew graph %d -> %d", trial, before, ng.NumAnds())
		}
	}
}

func TestZeroVariantsPreserveNodeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		g := buildRandom(rng, 7, 100)
		before := g.NumAnds()
		ng := Rewrite(g, true)
		if ng.NumAnds() > before {
			t.Fatalf("rewrite -z grew graph %d -> %d", before, ng.NumAnds())
		}
		g2 := buildRandom(rng, 7, 100)
		before2 := g2.NumAnds()
		ng2 := Refactor(g2, true)
		if ng2.NumAnds() > before2 {
			t.Fatalf("refactor -z grew graph %d -> %d", before2, ng2.NumAnds())
		}
	}
}

func TestTransformOrderMatters(t *testing.T) {
	// The premise of the paper: different permutations of the same
	// transformations give different QoR. Verify two orders diverge on at
	// least one statistic for a random circuit family.
	rng := rand.New(rand.NewSource(11))
	diverged := false
	for trial := 0; trial < 10 && !diverged; trial++ {
		seed := rng.Int63()
		mk := func() *aig.AIG { return buildRandom(rand.New(rand.NewSource(seed)), 8, 200) }
		g1, _, err := Apply(mk(), []string{"balance", "rewrite", "refactor"})
		if err != nil {
			t.Fatal(err)
		}
		g2, _, err := Apply(mk(), []string{"refactor", "rewrite", "balance"})
		if err != nil {
			t.Fatal(err)
		}
		s1, s2 := g1.Stats(), g2.Stats()
		if s1.Ands != s2.Ands || s1.Levels != s2.Levels {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("transformation order never affected QoR across 10 random circuits")
	}
}

func TestDeterminism(t *testing.T) {
	// The same flow applied to the same circuit must give identical stats
	// (labels in the framework depend on this).
	for trial := 0; trial < 3; trial++ {
		mk := func() *aig.AIG { return buildRandom(rand.New(rand.NewSource(99)), 8, 200) }
		flow := []string{"rewrite", "refactor", "balance", "restructure", "rewrite -z", "refactor -z"}
		g1, st1, err := Apply(mk(), flow)
		if err != nil {
			t.Fatal(err)
		}
		g2, st2, err := Apply(mk(), flow)
		if err != nil {
			t.Fatal(err)
		}
		if g1.Stats() != g2.Stats() {
			t.Fatalf("nondeterministic result: %v vs %v", g1.Stats(), g2.Stats())
		}
		for i := range st1 {
			if st1[i] != st2[i] {
				t.Fatalf("step %d diverged: %v vs %v", i, st1[i], st2[i])
			}
		}
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("fluxcapacitate"); err == nil {
		t.Fatal("expected error for unknown transform")
	}
	for _, n := range Names {
		if _, err := ByName(n); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
}

func TestApplySequenceStats(t *testing.T) {
	g := buildRedundant()
	_, stats, err := Apply(g, []string{"balance", "rewrite"})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats len = %d", len(stats))
	}
}

// TestCutPassAllocationBudget bounds the garbage one cut-based pass
// leaves on miniaes2: cut sets, cone tables and ISOP stacks come from
// the pass's workspace and factored forms from its library, so a pass
// allocates a few hundred times (graphs, workspace growth, the forms it
// adds to the library), not once per cut or table. Before the
// workspaces, one refactor pass allocated 63 MB in 1.09 million objects.
// Through a library the other passes have filled, a cone pass factors
// nothing and keeps only its graph and workspace; on a workspace the
// other passes have grown as well, a pass keeps only its graphs.
func TestCutPassAllocationBudget(t *testing.T) {
	d, err := circuits.ByName("miniaes2")
	if err != nil {
		t.Fatal(err)
	}
	g0 := d.Build().Cleanup()
	names := []string{"restructure", "rewrite", "refactor", "rewrite -z", "refactor -z"}
	perPass := func(tr Transform) (bytes, objects uint64) {
		const runs = 3
		var before, after runtime.MemStats
		graphs := make([]*aig.AIG, runs)
		for i := range graphs {
			graphs[i] = g0.Clone()
		}
		runtime.ReadMemStats(&before)
		for _, g := range graphs {
			Step(tr, g)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
	}
	for _, name := range names {
		tr, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		bytes, objects := perPass(tr)
		t.Logf("%s: %d bytes in %d objects per pass", name, bytes, objects)
		if bytes > 8<<20 || objects > 4000 {
			t.Errorf("%s allocates %d bytes in %d objects per pass, budget 8 MiB in 4000", name, bytes, objects)
		}
	}

	lib := NewLibrary()
	for _, name := range names {
		tr, err := lib.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		Step(tr, g0.Clone())
	}
	for _, name := range []string{"restructure", "refactor", "refactor -z"} {
		tr, err := lib.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		bytes, objects := perPass(tr)
		t.Logf("%s, warm library: %d bytes in %d objects per pass", name, bytes, objects)
		// Under the race detector, appends of a make that the compiler
		// otherwise folds into one growth (cut.Cones.begin) allocate the
		// temporary, so only bytes are budgeted there.
		if bytes > 512<<10 || objects > 200 && !raceEnabled {
			t.Errorf("%s through a warm library allocates %d bytes in %d objects per pass, budget 512 KiB in 200", name, bytes, objects)
		}
	}

	ws := NewWorkspace(nil)
	for _, name := range names {
		tr, err := lib.Bind(name, ws)
		if err != nil {
			t.Fatal(err)
		}
		Step(tr, g0.Clone())
	}
	for _, name := range append([]string{"balance"}, names...) {
		tr, err := lib.Bind(name, ws)
		if err != nil {
			t.Fatal(err)
		}
		bytes, objects := perPass(tr)
		t.Logf("%s, warm library and workspace: %d bytes in %d objects per pass", name, bytes, objects)
		// Measured 53–118 KB in 32–57 objects on miniaes2; the budget is
		// about twice that.
		if bytes > 256<<10 || objects > 120 && !raceEnabled {
			t.Errorf("%s through a warm library and workspace allocates %d bytes in %d objects per pass, budget 256 KiB in 120", name, bytes, objects)
		}
	}
}

// TestLibrarySharedAcrossPasses runs every transformation through one
// library from several goroutines at once, twice over, so that the
// second round runs on tables the other transformations factored: each
// result must be the graph a fresh library gives.
func TestLibrarySharedAcrossPasses(t *testing.T) {
	for _, design := range []string{"alu8", "miniaes2", "mont8"} {
		d, err := circuits.ByName(design)
		if err != nil {
			t.Fatal(err)
		}
		g0 := d.Build().Cleanup()
		want := make(map[string]aig.Fingerprint)
		for _, name := range Names {
			tr, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			want[name] = Step(tr, g0.Clone()).StructuralFingerprint()
		}
		lib := NewLibrary()
		const workers, rounds = 4, 2
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			graphs := make([]*aig.AIG, rounds*len(Names))
			for i := range graphs {
				graphs[i] = g0.Clone()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, g := range graphs {
					name := Names[(i+w)%len(Names)]
					tr, err := lib.ByName(name)
					if err != nil {
						t.Error(err)
						return
					}
					if Step(tr, g).StructuralFingerprint() != want[name] {
						t.Errorf("%s: %s through a shared library differs from a fresh library", design, name)
					}
				}
			}()
		}
		wg.Wait()
		if hits, misses := lib.Counts(); hits == 0 || misses == 0 {
			t.Errorf("%s: library counted %d hits and %d misses, want both", design, hits, misses)
		}
	}
}

// TestWorkspaceReuseMatchesFresh runs every transformation on one
// workspace, bound to one library, over graphs of different sizes in
// turn, twice: each result must be the graph a fresh workspace and a
// fresh library give, so nothing one pass leaves in a workspace reaches
// the next.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var graphs []*aig.AIG
	for _, design := range []string{"miniaes2", "alu8", "mont8"} {
		d, err := circuits.ByName(design)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, d.Build().Cleanup())
	}
	graphs = append(graphs, buildRandom(rng, 8, 300), buildRandom(rng, 5, 40))
	want := make([]map[string]aig.Fingerprint, len(graphs))
	for i, g := range graphs {
		want[i] = make(map[string]aig.Fingerprint)
		for _, name := range Names {
			tr, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			want[i][name] = Step(tr, g.Clone()).StructuralFingerprint()
		}
	}
	lib, ws := NewLibrary(), NewWorkspace(nil)
	for round := 0; round < 2; round++ {
		for i, g := range graphs {
			for _, name := range Names {
				tr, err := lib.Bind(name, ws)
				if err != nil {
					t.Fatal(err)
				}
				if Step(tr, g.Clone()).StructuralFingerprint() != want[i][name] {
					t.Fatalf("round %d graph %d: %s on a reused workspace differs from a fresh one", round, i, name)
				}
			}
		}
	}
}

// TestLibraryByteBudget fills one library with random distinct tables of
// 3 to 10 variables until it has refused many: its arenas and index never
// take more than libraryBytes, every form it returns, refused or held,
// computes its table, and the tables it holds hit with the form a fresh
// workspace factors.
func TestLibraryByteBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	seen := make(map[string]bool)
	lib := NewLibrary()
	p := &pass{lib: lib, ws: NewWorkspace(nil)}
	var held, refused []bitvec.TT
	for len(refused) < 64 {
		nv := 3 + rng.Intn(8)
		if len(held) > 100 {
			nv = 9 + rng.Intn(2) // large tables fill the budget fastest
		}
		tt := bitvec.New(nv)
		for w := range tt.Words() {
			tt.Words()[w] = rng.Uint64() & bitvec.WordMask(nv)
		}
		if k := fmt.Sprint(nv, tt.Words()); seen[k] {
			continue
		} else {
			seen[k] = true
		}
		before, _ := lib.Size()
		e := p.lookup(tt)
		checkForm(t, e, tt)
		entries, bytes := lib.Size()
		if bytes > libraryBytes {
			t.Fatalf("library takes %d bytes after %d tables, budget %d", bytes, len(seen), libraryBytes)
		}
		switch entries {
		case before + 1:
			held = append(held, tt)
		case before:
			refused = append(refused, tt)
		default:
			t.Fatalf("one lookup took the library from %d to %d entries", before, entries)
		}
	}
	p.end()
	if hits, misses := lib.Counts(); hits != 0 || misses != len(seen) {
		t.Fatalf("filling counted %d hits and %d misses, want 0 and %d", hits, misses, len(seen))
	}
	entries, bytes := lib.Size()
	t.Logf("holds %d tables in %d bytes after refusing %d", entries, bytes, len(refused))
	if entries != len(held) || bytes < libraryBytes*9/10 {
		t.Fatalf("library holds %d tables in %d bytes, want %d tables in at least 90%% of %d", entries, bytes, len(held), libraryBytes)
	}

	var fresh sop.Workspace
	p = &pass{lib: lib, ws: NewWorkspace(nil)}
	for _, tt := range held {
		e := p.lookup(tt)
		form, inv := fresh.FactorTTFast(tt)
		if !slices.Equal(e.form, form) || e.inv != inv {
			t.Fatalf("held %d-variable table %v: library form %v (inv=%v), fresh %v (inv=%v)", tt.NumVars(), tt, e.form, e.inv, form, inv)
		}
	}
	for _, tt := range refused[:8] {
		checkForm(t, p.lookup(tt), tt)
	}
	if p.hits != int64(len(held)) || p.misses != 8 {
		t.Fatalf("%d held and 8 refused tables counted %d hits and %d misses", len(held), p.hits, p.misses)
	}
}

// checkForm fails the test unless e's form, complemented when e says so,
// computes tt: it builds the form over fresh inputs and simulates it on
// every minterm.
func checkForm(t *testing.T, e factored, tt bitvec.TT) {
	t.Helper()
	nv := tt.NumVars()
	g := aig.New()
	leaves := make([]aig.Lit, nv)
	patterns := make([][]uint64, nv)
	for v := range leaves {
		leaves[v] = g.AddInput("x")
		patterns[v] = bitvec.Var(nv, v).Words()
	}
	var ws sop.Workspace
	out, _ := ws.BuildAIG(g, e.form, leaves, -1)
	g.AddOutput(out.NotIf(e.inv), "f")
	got := g.Simulate(patterns)[0]
	for w := range got {
		if got[w]&bitvec.WordMask(nv) != tt.Words()[w] {
			t.Fatalf("%d-variable table %v: form %v (inv=%v) computes another function", nv, tt, e.form, e.inv)
		}
	}
}

// BenchmarkStep times one Step of each transformation of the paper's
// alphabet on the designs the labeling benchmarks use, from the design's
// canonical graph. These are the passes a QoR label is made of. Each
// Step factors through a fresh library and runs on a workspace an
// untimed Step has grown, as a synthesis worker's passes do, so
// allocs/op is the garbage one pass leaves behind.
func BenchmarkStep(b *testing.B) {
	for _, design := range []string{"alu8", "miniaes2"} {
		d, err := circuits.ByName(design)
		if err != nil {
			b.Fatal(err)
		}
		g0 := d.Build().Cleanup()
		for _, name := range Names {
			b.Run(design+"/"+name, func(b *testing.B) {
				ws := NewWorkspace(nil)
				step := func() {
					tr, err := NewLibrary().Bind(name, ws)
					if err != nil {
						b.Fatal(err)
					}
					g := g0.Clone()
					b.StartTimer()
					_ = Step(tr, g)
					b.StopTimer()
				}
				b.StopTimer()
				step()
				b.ReportAllocs()
				b.ResetTimer()
				b.StopTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}

// TestStepIsCanonical pins the Transform contract Step relies on: every
// transformation already returns Cleanup's canonical form, so a Step
// equals the transformation followed by one more Cleanup.
func TestStepIsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, name := range append(append([]string(nil), Names...), "fraig") {
		tr, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := buildRandom(rng, 8, 150)
		c := g.Clone()
		if Step(tr, g).StructuralFingerprint() != tr(c).Cleanup().StructuralFingerprint() {
			t.Errorf("%s does not return a canonical graph", name)
		}
	}
}

func TestFraigExtensionRegistered(t *testing.T) {
	tr, err := ByName("fraig")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	g := buildRandom(rng, 6, 120)
	before := g.NumAnds()
	ng := checkPreserves(t, "fraig", tr, g)
	if ng.NumAnds() > before {
		t.Fatalf("fraig grew graph %d -> %d", before, ng.NumAnds())
	}
}

func TestFlowWithFraigExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := buildRandom(rng, 7, 150)
	sig := g.SimSignature(55, 4)
	ng, _, err := Apply(g, []string{"rewrite", "fraig", "balance", "refactor"})
	if err != nil {
		t.Fatal(err)
	}
	if !aig.SigEqual(sig, ng.SimSignature(55, 4)) {
		t.Fatal("fraig-extended flow changed function")
	}
}

// TestApplyEqualsChainedSteps pins the invariant the prefix-memoized
// evaluation engine (internal/synth) depends on: Apply is exactly the
// composition of Step calls, so an evaluator that walks a flow
// step-by-step (caching intermediate graphs) reproduces Apply's final
// graph bit-for-bit.
func TestApplyEqualsChainedSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	names := []string{"balance", "rewrite", "refactor -z", "restructure", "rewrite -z", "refactor"}
	g := buildRandom(rng, 8, 150)
	manual := g.Clone()
	viaApply, stats, err := Apply(g, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(names) {
		t.Fatalf("Apply returned %d stats, want %d", len(stats), len(names))
	}
	for _, name := range names {
		tr, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		manual = Step(tr, manual)
	}
	if viaApply.StructuralFingerprint() != manual.StructuralFingerprint() {
		t.Fatal("Apply and chained Steps diverged")
	}
}

// TestStepDeterministicOnClones: a Step on a bit-exact clone must
// reproduce the original's result representation-identically (the memo
// engine hands clones of cached intermediate graphs to sibling
// prefixes).
func TestStepDeterministicOnClones(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, name := range append(append([]string(nil), Names...), "fraig") {
		tr, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := buildRandom(rng, 8, 120)
		c := g.Clone()
		a := Step(tr, g)
		b := Step(tr, c)
		if a.StructuralFingerprint() != b.StructuralFingerprint() {
			t.Fatalf("%s diverged between a graph and its clone", name)
		}
	}
}
