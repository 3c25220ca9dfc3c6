// Prefix-memoized batch evaluation. Flows in an m-repetition space are
// permutations of one transformation multiset, so a batch shares massive
// prefix structure; on top of that, synthesis transformations converge
// (a pass near its fixed point returns the graph unchanged), so many
// distinct prefixes reach bit-identical intermediate graphs. The memo
// engine exploits both:
//
//   - a trie over the batch (internal/flow.BuildTrie) applies each
//     distinct transformation prefix exactly once;
//   - every intermediate graph is fingerprinted structurally
//     (aig.StructuralFingerprint); a transition cache keyed by
//     (parent fingerprint, transformation) skips transformations whose
//     result graph is already cached, so convergent prefixes share one
//     subtree of work;
//   - technology mapping runs once per distinct final graph, not once
//     per flow.
//
// Intermediate graphs are cached with refcount-based eviction: a trie
// node's graph is dropped the moment its last consumer (child prefix or
// leaf mapping) has taken it, so peak memory is bounded by the trie
// frontier, not the trie size. Because clones are bit-exact
// (aig.Clone) and every transformation is a deterministic function of
// the graph representation, the memoized path returns bit-identical
// QoRs to Engine.Evaluate; memo_test.go proves this differentially.
package synth

import (
	"sync"
	"sync/atomic"

	"flowgen/internal/aig"
	"flowgen/internal/cut"
	"flowgen/internal/flow"
	"flowgen/internal/rewrite"
	"flowgen/internal/techmap"
)

// MemoStats reports the work sharing achieved by memoized evaluation,
// accumulated over an Engine's lifetime.
type MemoStats struct {
	Flows          int // flows evaluated through the memoized path
	TrieNodes      int // distinct transformation prefixes across batches
	DirectSteps    int // transformation applications a direct evaluator would run
	TransformsRun  int // transformation applications actually executed
	TransitionHits int // applications skipped via the convergence transition cache
	EvictedMisses  int // known transitions recomputed because the target graph was evicted
	VictimHits     int // evicted transition targets resurrected from the victim cache
	MapCalls       int // technology-mapping runs executed
	MapCacheHits   int // leaf evaluations served by the final-graph QoR cache
	Clones         int // graph clones made for multi-consumer prefixes
	PeakGraphs     int // peak number of simultaneously cached intermediate graphs
	FactorHits     int // cut and cone tables found in the engine's factoring library
	FactorMisses   int // cut and cone tables factored because the library lacked them
	LibraryEntries int // tables the factoring library holds
	LibraryBytes   int // bytes the factoring library's arenas and index take
}

// SpeedupFactor estimates the transformation-work reduction: direct
// steps divided by transformations actually run (technology-mapping
// savings come on top of this).
func (s MemoStats) SpeedupFactor() float64 {
	if s.TransformsRun == 0 {
		return 1
	}
	return float64(s.DirectSteps) / float64(s.TransformsRun)
}

// memoTable is the per-engine persistent part of the memoizer. The
// transition and QoR caches survive across EvaluateAll calls, so
// incremental collection (e.g. core.Framework labels flows in rounds of
// 50) keeps benefiting from earlier rounds; both hold only fingerprints
// and small structs, never graphs, so they stay cheap. One mutex guards
// everything including per-call state, which keeps the refcount
// lifecycle race-free even for concurrent EvaluateAll calls.
type memoTable struct {
	mu    sync.Mutex
	trans map[memoTransKey]aig.Fingerprint
	qors  map[aig.Fingerprint]*qorFuture
	stats MemoStats

	// Victim cache: a bounded FIFO of graphs that were dropped without
	// being consumed (released parents of convergence hits, duplicate
	// final graphs, and just-mapped leaves). A transition whose known
	// target was evicted from the live state set checks here before
	// recomputing, turning a fraction of EvictedMisses into VictimHits.
	victims   map[aig.Fingerprint]*aig.AIG
	victimQ   []aig.Fingerprint
	victimCap int
}

// defaultVictimCap bounds the victim cache. Graphs at experiment scale
// are small (thousands of nodes), so a few dozen victims cost little
// memory while catching the recomputed-transition tail (~1.5% of
// transforms before the cache existed).
const defaultVictimCap = 64

func newMemoTable() *memoTable {
	return &memoTable{
		trans:     make(map[memoTransKey]aig.Fingerprint),
		qors:      make(map[aig.Fingerprint]*qorFuture),
		victims:   make(map[aig.Fingerprint]*aig.AIG),
		victimCap: defaultVictimCap,
	}
}

// victimPutLocked stores an unconsumed graph under its fingerprint,
// evicting the oldest victims beyond the cap. Must hold mu.
func (t *memoTable) victimPutLocked(fp aig.Fingerprint, g *aig.AIG) {
	if t.victimCap <= 0 || g == nil {
		return
	}
	if _, dup := t.victims[fp]; dup {
		return
	}
	// The queue may hold stale fingerprints already taken out of the
	// map; pop until the map is actually below the cap.
	for len(t.victims) >= t.victimCap && len(t.victimQ) > 0 {
		old := t.victimQ[0]
		t.victimQ = t.victimQ[1:]
		delete(t.victims, old)
	}
	t.victims[fp] = g
	t.victimQ = append(t.victimQ, fp)
}

// victimTakeLocked removes and returns the victim graph for fp, if
// cached. The queue entry is dropped too: leaving it stale would evict a
// later re-banked graph with the same fingerprint when the stale head
// reached the FIFO front, and would let the queue grow without bound
// under take-heavy replay workloads. Must hold mu.
func (t *memoTable) victimTakeLocked(fp aig.Fingerprint) (*aig.AIG, bool) {
	g, ok := t.victims[fp]
	if ok {
		delete(t.victims, fp)
		for i, q := range t.victimQ {
			if q == fp {
				t.victimQ = append(t.victimQ[:i], t.victimQ[i+1:]...)
				break
			}
		}
	}
	return g, ok
}

type memoTransKey struct {
	parent aig.Fingerprint
	tr     int
}

// memoState is a refcounted cached intermediate graph: one entry per
// distinct live fingerprint of the current batch. refs counts the
// consumers (child prefixes plus a leaf mapping) that have not yet taken
// the graph; at zero the graph is dropped and the entry evicted.
type memoState struct {
	fp   aig.Fingerprint
	g    *aig.AIG
	refs int
}

// qorFuture is the once-per-final-graph mapping result. The first leaf
// to reach a final graph computes; concurrent leaves with the same
// fingerprint wait on done.
type qorFuture struct {
	done chan struct{}
	q    QoR
}

// memoEval is the per-call evaluator state.
type memoEval struct {
	e   *Engine
	tbl *memoTable
	out []QoR

	states map[aig.Fingerprint]*memoState // guarded by tbl.mu
	peak   int                            // guarded by tbl.mu

	tasks    chan memoTask
	wg       sync.WaitGroup
	done     atomic.Int64
	progress func(int)
}

// worker is what one worker goroutine of an EvaluateAll call runs on: the
// alphabet's transformations, bound to the engine's library and to one
// rewrite workspace, and a mapping workspace that shares the rewrite
// workspace's cut set. Every pass and mapping of the goroutine reuses
// that memory, and no other goroutine touches it.
type worker struct {
	transforms []rewrite.Transform
	mapper     *techmap.Workspace
}

// newWorker returns a worker for e's alphabet.
func (e *Engine) newWorker() (*worker, error) {
	cuts := new(cut.Set)
	ws := rewrite.NewWorkspace(cuts)
	w := &worker{
		transforms: make([]rewrite.Transform, len(e.Space.Alphabet)),
		mapper:     techmap.NewWorkspace(cuts),
	}
	for i, name := range e.Space.Alphabet {
		t, err := e.lib.Bind(name, ws)
		if err != nil {
			return nil, err
		}
		w.transforms[i] = t
	}
	return w, nil
}

// memoTask evaluates one trie node: apply node.Transform to the parent
// state's graph (or skip it via the transition cache), then fan out.
type memoTask struct {
	node     *flow.TrieNode
	parent   *memoState
	parentFP aig.Fingerprint
}

func consumersOf(n *flow.TrieNode) int {
	c := len(n.Children)
	if n.Terminal() {
		c++
	}
	return c
}

// acquireLocked consumes one reference on s: the last consumer takes the
// graph (and the entry is evicted), earlier consumers get a bit-exact
// clone. Must hold tbl.mu; cloning under the lock is what makes
// take-vs-clone race-free, and it is cheap next to a transformation.
func (m *memoEval) acquireLocked(s *memoState) *aig.AIG {
	s.refs--
	if s.refs == 0 {
		g := s.g
		s.g = nil
		delete(m.states, s.fp)
		return g
	}
	m.tbl.stats.Clones++
	return s.g.Clone()
}

// releaseLocked drops one reference on s without using the graph. A
// graph whose last reference is released (rather than taken) was never
// consumed, so it moves to the victim cache for free.
func (m *memoEval) releaseLocked(s *memoState) {
	s.refs--
	if s.refs == 0 {
		m.tbl.victimPutLocked(s.fp, s.g)
		s.g = nil
		delete(m.states, s.fp)
	}
}

// installLocked registers a freshly produced graph under fp with the
// given consumer count, merging into an existing entry when a convergent
// prefix beat us to the same graph.
func (m *memoEval) installLocked(fp aig.Fingerprint, g *aig.AIG, consumers int) *memoState {
	if s, ok := m.states[fp]; ok {
		// A convergent prefix beat us to this graph; the duplicate copy
		// would be dropped, so bank it as a victim instead.
		m.tbl.victimPutLocked(fp, g)
		s.refs += consumers
		return s
	}
	s := &memoState{fp: fp, g: g, refs: consumers}
	m.states[fp] = s
	if len(m.states) > m.peak {
		m.peak = len(m.states)
	}
	return s
}

func (m *memoEval) run(t memoTask, w *worker) {
	defer m.wg.Done()
	n := t.node
	consumers := consumersOf(n)
	key := memoTransKey{parent: t.parentFP, tr: n.Transform}

	var fp aig.Fingerprint
	var entry *memoState

	m.tbl.mu.Lock()
	if f, hit := m.tbl.trans[key]; hit {
		if s, live := m.states[f]; live {
			// Convergence hit: another prefix already produced this exact
			// graph and it is still cached. Attach our consumers to it and
			// release the parent graph untouched.
			s.refs += consumers
			m.tbl.stats.TransitionHits++
			m.releaseLocked(t.parent)
			fp, entry = f, s
		} else if g, ok := m.tbl.victimTakeLocked(f); ok {
			// The target was evicted but survives in the victim cache:
			// resurrect it instead of recomputing the transformation.
			m.tbl.stats.VictimHits++
			m.releaseLocked(t.parent)
			entry = m.installLocked(f, g, consumers)
			fp = f
		} else {
			m.tbl.stats.EvictedMisses++
		}
	}
	if entry == nil {
		g := m.acquireLocked(t.parent)
		m.tbl.mu.Unlock()
		g = rewrite.Step(w.transforms[n.Transform], g)
		fp = g.StructuralFingerprint()
		m.tbl.mu.Lock()
		m.tbl.stats.TransformsRun++
		m.tbl.trans[key] = fp
		entry = m.installLocked(fp, g, consumers)
	}
	m.tbl.mu.Unlock()

	if n.Terminal() {
		m.finishFlows(n, entry, fp, w.mapper)
	}
	for _, c := range n.Children {
		m.wg.Add(1)
		m.tasks <- memoTask{node: c, parent: entry, parentFP: fp}
	}
}

// finishFlows maps the node's final graph (once per distinct final
// fingerprint, engine-wide) in ws and records the QoR for every flow
// ending here.
func (m *memoEval) finishFlows(n *flow.TrieNode, entry *memoState, fp aig.Fingerprint, ws *techmap.Workspace) {
	var q QoR
	m.tbl.mu.Lock()
	if f, ok := m.tbl.qors[fp]; ok {
		m.tbl.stats.MapCacheHits++
		m.releaseLocked(entry)
		m.tbl.mu.Unlock()
		<-f.done
		q = f.q
	} else {
		f := &qorFuture{done: make(chan struct{})}
		m.tbl.qors[fp] = f
		m.tbl.stats.MapCalls++
		g := m.acquireLocked(entry)
		m.tbl.mu.Unlock()
		mq := techmap.MapWith(g, m.e.matcher, m.e.MapMode, ws)
		f.q = QoR{
			Area:   mq.Area,
			Delay:  mq.Delay,
			Gates:  mq.Gates,
			Ands:   g.NumAnds(),
			Levels: g.RecomputeLevels(),
		}
		close(f.done)
		q = f.q
		// Mapping reads the graph and recounts nothing: a canonical
		// (Cleanup'd) graph carries its refs and levels. The graph is still
		// representation-identical to its transformation output, so it can
		// serve as a victim for transitions targeting this fingerprint.
		m.tbl.mu.Lock()
		m.tbl.victimPutLocked(fp, g)
		m.tbl.mu.Unlock()
	}
	for _, fi := range n.Flows {
		m.out[fi] = q
		m.e.evals.Add(1)
		d := m.done.Add(1)
		if m.progress != nil {
			m.progress(int(d))
		}
	}
}

// evaluateAllMemo is the memoized EvaluateAll path. Flows must already
// be validated against the engine's space.
func (e *Engine) evaluateAllMemo(flows []flow.Flow, progress func(done int)) ([]QoR, error) {
	workers := make([]*worker, max(e.Workers, 1))
	for i := range workers {
		w, err := e.newWorker()
		if err != nil {
			return nil, err
		}
		workers[i] = w
	}
	trie := flow.BuildTrie(flows)
	m := &memoEval{
		e:        e,
		tbl:      e.memo,
		out:      make([]QoR, len(flows)),
		states:   make(map[aig.Fingerprint]*memoState, trie.Nodes/4+1),
		tasks:    make(chan memoTask, trie.Nodes+1),
		progress: progress,
	}

	g0 := e.master.Cleanup()
	fp0 := g0.StructuralFingerprint()
	m.tbl.mu.Lock()
	m.tbl.stats.Flows += len(flows)
	m.tbl.stats.TrieNodes += trie.Nodes
	m.tbl.stats.DirectSteps += trie.Steps
	root := m.installLocked(fp0, g0, consumersOf(trie.Root))
	m.tbl.mu.Unlock()

	// Zero-length flows cannot pass Space.Validate, but the trie supports
	// them, so handle a terminal root for completeness.
	if trie.Root.Terminal() {
		m.finishFlows(trie.Root, root, fp0, techmap.NewWorkspace(nil))
	}
	for _, c := range trie.Root.Children {
		m.wg.Add(1)
		m.tasks <- memoTask{node: c, parent: root, parentFP: fp0}
	}
	go func() {
		m.wg.Wait()
		close(m.tasks)
	}()

	var ww sync.WaitGroup
	for _, w := range workers {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for t := range m.tasks {
				m.run(t, w)
			}
		}()
	}
	ww.Wait()

	m.tbl.mu.Lock()
	if m.peak > m.tbl.stats.PeakGraphs {
		m.tbl.stats.PeakGraphs = m.peak
	}
	m.tbl.mu.Unlock()
	return m.out, nil
}

// MemoStats returns the accumulated sharing statistics of the engine's
// memoized evaluations. The factoring counts cover the passes that have
// ended; the library's size is its size now.
func (e *Engine) MemoStats() MemoStats {
	e.memo.mu.Lock()
	s := e.memo.stats
	e.memo.mu.Unlock()
	s.FactorHits, s.FactorMisses = e.lib.Counts()
	s.LibraryEntries, s.LibraryBytes = e.lib.Size()
	return s
}
