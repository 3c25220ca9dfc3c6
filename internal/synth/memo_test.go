package synth

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"flowgen/internal/aig"
	"flowgen/internal/circuits"
	"flowgen/internal/flow"
	"flowgen/internal/obs"
)

// TestMemoizedMatchesDirectAllDesigns is the differential proof behind
// the memo engine: for every registered design, the prefix-memoized
// EvaluateAll must return bit-identical QoRs to the direct per-flow
// path, across several seeds. Batch sizes scale inversely with design
// size to keep the full run in CI budget; the paper-scale giants
// (aes128, mont64: ~10-55 s per flow) only run when FLOWGEN_LONG_TESTS
// is set.
func TestMemoizedMatchesDirectAllDesigns(t *testing.T) {
	long := os.Getenv("FLOWGEN_LONG_TESTS") != ""
	space := flow.NewSpace(flow.DefaultAlphabet, 1) // L=6
	for _, name := range circuits.Names() {
		d, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		design := d.Build()
		ands := design.NumAnds()
		var nflows int
		var seeds []int64
		switch {
		case ands <= 1000:
			nflows, seeds = 16, []int64{1, 2}
		case ands <= 6000:
			nflows, seeds = 8, []int64{1}
		case ands <= 20000:
			nflows, seeds = 3, []int64{1}
		default:
			if !long {
				t.Logf("skipping paper-scale %s (%d ands); set FLOWGEN_LONG_TESTS to include it", name, ands)
				continue
			}
			nflows, seeds = 2, []int64{1}
		}
		if testing.Short() && ands > 1000 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			for _, seed := range seeds {
				rng := rand.New(rand.NewSource(seed))
				flows := space.RandomUnique(rng, nflows)
				// Inject a duplicate so the memo path must fan one terminal
				// out to several batch slots.
				if len(flows) >= 2 {
					flows = append(flows, flows[0])
				}

				memoEng := NewEngine(design, space)
				memo, err := memoEng.EvaluateAll(flows, nil)
				if err != nil {
					t.Fatal(err)
				}
				directEng := NewEngine(design, space)
				directEng.Memo = false
				direct, err := directEng.EvaluateAll(flows, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range flows {
					if memo[i] != direct[i] {
						t.Fatalf("seed %d flow %d (%s): memoized %+v != direct %+v",
							seed, i, flows[i].String(space), memo[i], direct[i])
					}
				}
				st := memoEng.MemoStats()
				if st.TransformsRun > st.DirectSteps {
					t.Fatalf("memo ran more transforms than direct would: %+v", st)
				}
				if st.Flows != len(flows) {
					t.Fatalf("stats counted %d flows, want %d", st.Flows, len(flows))
				}
			}
		})
	}
}

func TestMemoizedHandlesDuplicatesAndEmptyBatch(t *testing.T) {
	e := NewEngine(circuits.ALU(8), smallSpace())
	out, err := e.EvaluateAll(nil, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
	rng := rand.New(rand.NewSource(9))
	f := e.Space.Random(rng)
	qors, err := e.EvaluateAll([]flow.Flow{f, f, f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if qors[0] != qors[1] || qors[1] != qors[2] {
		t.Fatalf("duplicate flows diverged: %+v", qors)
	}
	q, err := e.Evaluate(f)
	if err != nil {
		t.Fatal(err)
	}
	if q != qors[0] {
		t.Fatalf("memoized %+v != direct %+v", qors[0], q)
	}
	st := e.MemoStats()
	// Three identical flows: one trie path, so at most L transforms and
	// one mapping.
	if st.TransformsRun > e.Space.Length() {
		t.Fatalf("duplicates were not shared: %+v", st)
	}
	if st.MapCalls != 1 {
		t.Fatalf("MapCalls = %d, want 1", st.MapCalls)
	}
}

// TestMemoizedManyWorkersMatchesDirect pins the DAG scheduler's
// determinism under real concurrency: with several workers racing over
// the trie (and duplicate flows fanning one terminal out to multiple
// batch slots), results must still be bit-identical to the direct path.
func TestMemoizedManyWorkersMatchesDirect(t *testing.T) {
	e := NewEngine(circuits.ALU(8), smallSpace())
	e.Workers = 8
	rng := rand.New(rand.NewSource(3))
	flows := e.Space.RandomUnique(rng, 60)
	flows = append(flows, flows[0], flows[1])
	memo, err := e.EvaluateAll(flows, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	d := NewEngine(circuits.ALU(8), e.Space)
	d.Memo = false
	d.Workers = 8
	direct, err := d.EvaluateAll(flows, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if memo[i] != direct[i] {
			t.Fatalf("flow %d: memoized %+v != direct %+v", i, memo[i], direct[i])
		}
	}
}

func TestMemoizedRejectsInvalidFlowInBatch(t *testing.T) {
	e := NewEngine(circuits.ALU(8), smallSpace())
	rng := rand.New(rand.NewSource(10))
	good := e.Space.Random(rng)
	bad := flow.Flow{Indices: []int{0, 0, 0, 0, 0, 0}}
	if _, err := e.EvaluateAll([]flow.Flow{good, bad}, nil); err == nil {
		t.Fatal("expected batch validation error")
	}
	if e.Evaluations() != 0 {
		t.Fatalf("batch validation should fail before any synthesis, ran %d", e.Evaluations())
	}
}

func TestMemoizedProgressCountsEveryFlow(t *testing.T) {
	e := NewEngine(circuits.ALU(8), smallSpace())
	rng := rand.New(rand.NewSource(11))
	flows := e.Space.RandomUnique(rng, 7)
	var mu chan int = make(chan int, len(flows))
	_, err := e.EvaluateAll(flows, func(done int) { mu <- done })
	if err != nil {
		t.Fatal(err)
	}
	close(mu)
	seen := map[int]bool{}
	for d := range mu {
		seen[d] = true
	}
	for i := 1; i <= len(flows); i++ {
		if !seen[i] {
			t.Fatalf("progress never reported %d (saw %v)", i, seen)
		}
	}
}

func TestMemoStatsAccumulateAcrossBatches(t *testing.T) {
	e := NewEngine(circuits.ALU(8), smallSpace())
	rng := rand.New(rand.NewSource(12))
	flows := e.Space.RandomUnique(rng, 6)
	if _, err := e.EvaluateAll(flows[:3], nil); err != nil {
		t.Fatal(err)
	}
	first := e.MemoStats()
	if _, err := e.EvaluateAll(flows[3:], nil); err != nil {
		t.Fatal(err)
	}
	second := e.MemoStats()
	if second.Flows != 6 || second.Flows <= first.Flows {
		t.Fatalf("stats did not accumulate: first %+v second %+v", first, second)
	}
	if second.SpeedupFactor() < 1 {
		t.Fatalf("speedup factor below 1: %+v", second)
	}
	// The factoring library persists across calls: the second batch
	// finds tables the first one factored.
	if first.FactorMisses == 0 || second.FactorHits <= first.FactorHits {
		t.Fatalf("factoring library did not accumulate hits: first %+v second %+v", first, second)
	}
	// It keeps what it factors: every miss of the first batch stored a
	// table, and the second batch stored more.
	if first.LibraryEntries == 0 || first.LibraryEntries > first.FactorMisses ||
		second.LibraryEntries <= first.LibraryEntries || second.LibraryBytes < first.LibraryBytes {
		t.Fatalf("factoring library did not keep its tables: first %+v second %+v", first, second)
	}
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, want := range []string{
		fmt.Sprintf("flowgen_synth_memo_factor_hits %d\n", second.FactorHits),
		fmt.Sprintf("flowgen_synth_memo_factor_misses %d\n", second.FactorMisses),
		fmt.Sprintf("flowgen_synth_library_entries %d\n", second.LibraryEntries),
		fmt.Sprintf("flowgen_synth_library_bytes %d\n", second.LibraryBytes),
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics lack %q", want)
		}
	}
}

// TestVictimCacheResurrectsEvictedTargets replays a batch on one engine:
// the first pass banks unconsumed graphs in the victim cache as their
// refcounts drain, and the replay — whose transition cache hits on every
// prefix but whose live state set starts empty — must resurrect some of
// them instead of recomputing, with QoRs still bit-identical to the
// direct path.
func TestVictimCacheResurrectsEvictedTargets(t *testing.T) {
	e := NewEngine(circuits.ALU(8), smallSpace())
	rng := rand.New(rand.NewSource(21))
	flows := e.Space.RandomUnique(rng, 40)
	first, err := e.EvaluateAll(flows, nil)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := e.EvaluateAll(flows, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if first[i] != replay[i] {
			t.Fatalf("flow %d: replay %+v != first %+v", i, replay[i], first[i])
		}
	}
	st := e.MemoStats()
	if st.VictimHits == 0 {
		t.Fatalf("replay produced no victim hits: %+v", st)
	}
	d := NewEngine(circuits.ALU(8), e.Space)
	d.Memo = false
	direct, err := d.EvaluateAll(flows, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		if replay[i] != direct[i] {
			t.Fatalf("flow %d: victim-cached %+v != direct %+v", i, replay[i], direct[i])
		}
	}
}

// TestVictimCacheBounded checks the FIFO bound of the victim cache.
func TestVictimCacheBounded(t *testing.T) {
	tbl := newMemoTable()
	tbl.victimCap = 4
	g := circuits.ALU(4)
	for i := 0; i < 20; i++ {
		tbl.victimPutLocked(aig.Fingerprint{uint64(i), uint64(i)}, g)
		if len(tbl.victims) > tbl.victimCap {
			t.Fatalf("victim cache grew to %d (cap %d)", len(tbl.victims), tbl.victimCap)
		}
	}
	// The newest entries survive; the oldest were evicted.
	if _, ok := tbl.victimTakeLocked(aig.Fingerprint{19, 19}); !ok {
		t.Fatal("newest victim missing")
	}
	if _, ok := tbl.victimTakeLocked(aig.Fingerprint{0, 0}); ok {
		t.Fatal("oldest victim should have been evicted")
	}
	// Taking removes the entry.
	if _, ok := tbl.victimTakeLocked(aig.Fingerprint{19, 19}); ok {
		t.Fatal("take must remove the victim")
	}
	// A zero cap disables the cache entirely.
	tbl.victimCap = 0
	tbl.victims = map[aig.Fingerprint]*aig.AIG{}
	tbl.victimPutLocked(aig.Fingerprint{99, 99}, g)
	if len(tbl.victims) != 0 {
		t.Fatal("cap 0 must disable victim storage")
	}
}

// TestVictimCacheTakeThenRebank pins the take-requeue interaction: a
// fingerprint that is taken and later banked again must keep its fresh
// FIFO position — a stale queue entry from the take must not evict the
// re-banked graph early.
func TestVictimCacheTakeThenRebank(t *testing.T) {
	tbl := newMemoTable()
	tbl.victimCap = 2
	g := circuits.ALU(4)
	fpA := aig.Fingerprint{1, 1}
	fpB := aig.Fingerprint{2, 2}
	fpC := aig.Fingerprint{3, 3}
	tbl.victimPutLocked(fpA, g)
	tbl.victimPutLocked(fpB, g)
	if _, ok := tbl.victimTakeLocked(fpA); !ok {
		t.Fatal("fpA should be cached")
	}
	tbl.victimPutLocked(fpA, g) // re-bank: fpA is now newest
	tbl.victimPutLocked(fpC, g) // cap 2: must evict fpB, the true oldest
	if _, ok := tbl.victims[fpA]; !ok {
		t.Fatal("re-banked fpA was evicted by its stale queue entry")
	}
	if _, ok := tbl.victims[fpB]; ok {
		t.Fatal("oldest entry fpB should have been evicted")
	}
	if _, ok := tbl.victims[fpC]; !ok {
		t.Fatal("newest entry fpC missing")
	}
}

func benchmarkEvaluateAll(b *testing.B, memo bool) {
	// Exhaustive ground-truth collection: synthesize the ENTIRE
	// non-repetition flow space (m=1, all 720 permutations of the
	// 6-transformation alphabet) on one design — the qor-distro -all
	// workload. The batch is the whole space, so the prefix/convergence
	// structure the memo engine exploits is maximal: ~70% of
	// transformation applications and ~57% of technology mappings are
	// eliminated, a >2x wall-clock win.
	design := circuits.ALU(8)
	space := flow.NewSpace(flow.DefaultAlphabet, 1)
	flows := space.Enumerate(0)
	if len(flows) < 500 {
		b.Fatalf("expected a >=500-flow batch, got %d", len(flows))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(design, space)
		e.Memo = memo
		if _, err := e.EvaluateAll(flows, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateAll_Direct and BenchmarkEvaluateAll_Memoized measure
// the same 720-flow batch on the same design; compare with
// -benchtime=1x for a single-batch wall-clock read.
func BenchmarkEvaluateAll_Direct(b *testing.B)   { benchmarkEvaluateAll(b, false) }
func BenchmarkEvaluateAll_Memoized(b *testing.B) { benchmarkEvaluateAll(b, true) }

func benchmarkEvaluateAllRandom(b *testing.B, memo bool) {
	// Random sampling in the paper's full space (m=4, L=24), the
	// flowgen/flowexp collection workload. Random permutations diverge
	// quickly, so sharing is much thinner than in the exhaustive batch;
	// the memoized engine still wins by reusing the expensive early
	// prefixes and the convergent fixed-point tails.
	design := circuits.ALU(8)
	space := flow.NewSpace(flow.DefaultAlphabet, 4)
	rng := rand.New(rand.NewSource(1))
	flows := space.RandomUnique(rng, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(design, space)
		e.Memo = memo
		if _, err := e.EvaluateAll(flows, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateAllRandom_Direct(b *testing.B)   { benchmarkEvaluateAllRandom(b, false) }
func BenchmarkEvaluateAllRandom_Memoized(b *testing.B) { benchmarkEvaluateAllRandom(b, true) }
