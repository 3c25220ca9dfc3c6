// Package rewrite implements the logic synthesis transformations that
// form the flow alphabet S of the paper: balance, rewrite, refactor,
// restructure, and the zero-cost variants rewrite -z and refactor -z.
// Names and semantics follow the equally named ABC commands:
//
//   - balance:      global AND-tree rebalancing for depth reduction
//   - rewrite:      DAG-aware 4-input-cut rewriting against a factored-form
//     library, accepting positive-gain replacements
//   - rewrite -z:   also accepts zero-gain replacements (perturbs structure
//     to enable later passes)
//   - refactor:     reconvergence-driven large-cut (K=10) collapse, ISOP,
//     algebraic refactoring, accepting positive gain
//   - refactor -z:  zero-gain variant
//   - restructure:  K=8 cut resynthesis accepting area-neutral changes that
//     reduce local depth
//
// All transformations preserve circuit function; tests verify this with
// simulation signatures.
package rewrite

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"flowgen/internal/aig"
	"flowgen/internal/bitvec"
	"flowgen/internal/cut"
	"flowgen/internal/fraig"
	"flowgen/internal/sop"
)

// Transform is a function-preserving synthesis transformation. The input
// graph must not be used afterwards. Every transformation returns its
// result in Cleanup's canonical form (a fresh graph numbered in
// depth-first order from the outputs, with levels and references
// computed), so Step needs no second cleanup.
type Transform func(*aig.AIG) *aig.AIG

// Names lists the canonical transformation names in the order used by the
// paper's experiments: S = {balance, restructure, rewrite, refactor,
// rewrite -z, refactor -z}.
var Names = []string{"balance", "restructure", "rewrite", "refactor", "rewrite -z", "refactor -z"}

// ByName returns the transformation with the given ABC command name. Each
// application factors through a fresh library and runs on a fresh
// workspace.
func ByName(name string) (Transform, error) { return bind(name, nil, nil) }

// ByName returns the transformation with the given ABC command name,
// bound to l: its applications factor through l, each on a fresh
// workspace.
func (l *Library) ByName(name string) (Transform, error) { return bind(name, l, nil) }

// Bind returns the transformation with the given ABC command name, bound
// to l and ws: its applications factor through l and run on ws, so they
// must all come from the goroutine that owns ws.
func (l *Library) Bind(name string, ws *Workspace) (Transform, error) { return bind(name, l, ws) }

// bind resolves name to a transformation whose passes factor through l
// and run on ws; a nil l or ws stands for a fresh one per application.
func bind(name string, l *Library, ws *Workspace) (Transform, error) {
	var run func(p *pass, g *aig.AIG) *aig.AIG
	switch name {
	case "balance", "b":
		run = (*pass).balance
	case "rewrite", "rw":
		run = func(p *pass, g *aig.AIG) *aig.AIG { return p.rewrite(g, false) }
	case "rewrite -z", "rwz":
		run = func(p *pass, g *aig.AIG) *aig.AIG { return p.rewrite(g, true) }
	case "refactor", "rf":
		run = func(p *pass, g *aig.AIG) *aig.AIG { return p.refactorK(g, false, refactorLeaves, false) }
	case "refactor -z", "rfz":
		run = func(p *pass, g *aig.AIG) *aig.AIG { return p.refactorK(g, true, refactorLeaves, false) }
	case "restructure", "rs":
		run = func(p *pass, g *aig.AIG) *aig.AIG { return p.refactorK(g, false, 8, true) }
	case "fraig":
		// Extension beyond the paper's alphabet S: simulation-guided,
		// SAT-proven functional reduction (ABC's fraig).
		return func(g *aig.AIG) *aig.AIG {
			out, _ := fraig.Reduce(g, fraig.Options{})
			return out
		}, nil
	default:
		return nil, fmt.Errorf("rewrite: unknown transformation %q", name)
	}
	return func(g *aig.AIG) *aig.AIG { return runPass(l, ws, g, run) }, nil
}

// runPass runs one pass on g, factoring through l and working on ws; a
// nil l or ws is replaced by a fresh one.
func runPass(l *Library, ws *Workspace, g *aig.AIG, run func(p *pass, g *aig.AIG) *aig.AIG) *aig.AIG {
	if l == nil {
		l = NewLibrary()
	}
	if ws == nil {
		ws = NewWorkspace(nil)
	}
	p := pass{lib: l, ws: ws}
	defer p.end()
	return run(&p, g)
}

// Workspace is the scratch memory of the transformations: the cut set
// rewrite enumerates into, the cone marks of refactor and restructure,
// the factoring workspace, and the node, literal and operand buffers. A
// reused workspace stops allocating once it has grown to the largest
// graph it has seen. It serves one pass at a time and must never be used
// from two goroutines: the memoized engine gives each worker its own.
type Workspace struct {
	cuts  *cut.Set
	cones cut.Cones
	sop   sop.Workspace
	walk  aig.Walker
	lits  []aig.Lit // leaf literals of a build
	memo  []aig.Lit // balance: new literal of each old node
	done  []bool    // balance: which memo entries are set
	stack []aig.Lit // balance: operand stack
}

// NewWorkspace returns a workspace whose rewrite passes enumerate into
// cuts, which other users on the same goroutine (a mapper) may share; a
// nil cuts gives the workspace a set of its own.
func NewWorkspace(cuts *cut.Set) *Workspace {
	if cuts == nil {
		cuts = new(cut.Set)
	}
	return &Workspace{cuts: cuts}
}

// Balance rebuilds the graph with depth-balanced AND trees: maximal
// single-fanout conjunction trees are collected and recombined pairing the
// two shallowest operands first, as in ABC's balance command.
func Balance(g *aig.AIG) *aig.AIG { return runPass(nil, nil, g, (*pass).balance) }

// balance is Balance on the pass's workspace.
func (p *pass) balance(g *aig.AIG) *aig.AIG {
	ws := p.ws
	g.RecomputeRefs()
	n := g.NumNodesRaw()
	ng := aig.NewSized(n)
	// memo maps an old node id to its new positive literal; done marks
	// the ids memo holds.
	memo := slices.Grow(ws.memo[:0], n)[:n]
	done := slices.Grow(ws.done[:0], n)[:n]
	clear(done)
	memo[0], done[0] = aig.ConstFalse, true
	for i := 0; i < g.NumPIs(); i++ {
		id := g.PI(i).Node()
		memo[id], done[id] = ng.AddInput(g.PIName(i)), true
	}

	// Operands of the trees being balanced live on one stack: each tree
	// pushes its operands above those of the trees it is nested in,
	// combines them in place and pops them.
	stack := ws.stack[:0]
	var balNode func(id int) aig.Lit
	// collect pushes the operand literals of the maximal AND tree rooted
	// at l: a fanin is expanded when it is a non-complemented AND edge
	// with a single fanout (so merging it loses no sharing).
	var collect func(l aig.Lit)
	collect = func(l aig.Lit) {
		n := l.Node()
		if !l.IsNeg() && g.IsAnd(n) && g.Ref(n) == 1 {
			collect(g.Fanin0(n))
			collect(g.Fanin1(n))
			return
		}
		nl := balNode(n)
		stack = append(stack, nl.NotIf(l.IsNeg()))
	}
	balNode = func(id int) aig.Lit {
		if done[id] {
			return memo[id]
		}
		base := len(stack)
		collect(g.Fanin0(id))
		collect(g.Fanin1(id))
		// Pair the two shallowest operands repeatedly.
		ops := stack[base:]
		for len(ops) > 1 {
			slices.SortStableFunc(ops, func(a, b aig.Lit) int {
				return ng.Level(a.Node()) - ng.Level(b.Node())
			})
			nl := ng.And(ops[0], ops[1])
			copy(ops, ops[2:])
			ops[len(ops)-2] = nl
			ops = ops[:len(ops)-1]
		}
		memo[id], done[id] = ops[0], true
		stack = stack[:base]
		return memo[id]
	}

	for i := 0; i < g.NumPOs(); i++ {
		l := g.PO(i)
		nl := balNode(l.Node())
		ng.AddOutput(nl.NotIf(l.IsNeg()), g.POName(i))
	}
	ws.memo, ws.done, ws.stack = memo, done, stack
	return ng.Cleanup()
}

// Library holds the factored form of every table its passes have
// factored, up to a byte budget: the 4-input cut tables of rewrite and
// rewrite -z, and the cone tables of refactor, refactor -z and
// restructure, all keyed by variable count and table. A form is a pure
// function of its table, so passes on different graphs may share one
// library from several goroutines and get the graphs a fresh library
// gives.
//
// Nothing in a library holds a pointer but its three slices: every
// table back to back in one arena of words, each taking what its
// variable count needs (one word up to six variables, 16 at ten), every
// form back to back in one []uint16, and one open-addressing index of
// 16-byte entries. The capacity of all three counts against
// libraryBytes, and an entry that would take the library past it is not
// stored: lookups still hit, and such a miss is factored for its one
// use.
type Library struct {
	mu      sync.RWMutex
	tables  []uint64   // every entry's table, back to back
	forms   []uint16   // every entry's form, back to back
	index   []libEntry // linear probing; a power of two, at most half full
	entries int
	bytes   int // the capacity of tables, forms and index, in bytes

	hits, misses atomic.Int64 // lookups of ended passes
}

// libraryBytes bounds the memory of a Library. A synthesis engine keeps
// its library as long as it lives, which for the online loop is the
// process, so this is the only limit on it; DESIGN.md §6.2 gives the
// measurements that sized it against the benchmark's RSS bound.
const libraryBytes = 2 << 20

// libEntry indexes one table and its form. An entry with nv 0 is empty:
// the passes factor tables of 3 to 10 variables (a cut's table has 4).
type libEntry struct {
	tag   uint32 // the low half of the table's hash
	table uint32 // the table's offset in tables
	form  uint32 // the form's offset in forms
	size  uint16 // the form's length: at ten variables an ISOP has at most 512 cubes of 10 literals, so fewer than 12,000 codes
	nv    uint8  // the table's variable count
	inv   bool   // the form computes the table's complement
}

// minIndex is the slot count of a library's first index.
const minIndex = 1 << 10

// factored is a library entry: a form and whether it computes the
// complement of its table.
type factored struct {
	form sop.Form
	inv  bool
}

// NewLibrary returns an empty library. It allocates nothing until its
// first entry.
func NewLibrary() *Library { return new(Library) }

// Counts returns the library lookups that hit and that missed, summed
// over the passes that have ended.
func (l *Library) Counts() (hits, misses int) {
	return int(l.hits.Load()), int(l.misses.Load())
}

// Size returns the number of tables the library holds and the bytes its
// arenas and index take, which never exceed libraryBytes.
func (l *Library) Size() (entries, bytes int) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.entries, l.bytes
}

// pass is one synthesis pass: the library it factors through, the
// workspace it runs on, and its lookup counts, which reach the library
// once, when the pass ends.
type pass struct {
	lib          *Library
	ws           *Workspace
	hits, misses int64
}

// end adds the pass's lookup counts to its library.
func (p *pass) end() {
	p.lib.hits.Add(p.hits)
	p.lib.misses.Add(p.misses)
}

// lookup returns the factored form of tt. A miss is factored outside the
// lock on the pass's workspace, and the library stores a copy if it has
// room, so two passes that miss the same table store one form. On the
// 4-variable cut tables FactorTTFast is the FactorTT that Rewrite always
// used.
func (p *pass) lookup(tt bitvec.TT) factored {
	l := p.lib
	nv, words := tt.NumVars(), tt.Words()
	h := tableHash(nv, words)
	l.mu.RLock()
	e, ok := l.find(nv, words, h)
	l.mu.RUnlock()
	if ok {
		p.hits++
		return e
	}
	p.misses++
	e.form, e.inv = p.ws.sop.FactorTTFast(tt)
	l.mu.Lock()
	l.insert(nv, words, h, e)
	l.mu.Unlock()
	return e
}

// tableHash mixes a table and its variable count into 64 bits.
func tableHash(nv int, words []uint64) uint64 {
	h := uint64(nv)
	for _, w := range words {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h * 0xbf58476d1ce4e5b9
}

// find returns the entry of the nv-variable table words, whose hash is
// h. The caller holds the lock, at least for reading; the form it
// returns stays valid after, since stored codes are never written again.
func (l *Library) find(nv int, words []uint64, h uint64) (factored, bool) {
	if len(l.index) == 0 {
		return factored{}, false
	}
	mask := len(l.index) - 1
	for i := int(h>>32) & mask; ; i = (i + 1) & mask {
		e := &l.index[i]
		if e.nv == 0 {
			return factored{}, false
		}
		if e.tag == uint32(h) && int(e.nv) == nv && slices.Equal(l.table(e), words) {
			end := e.form + uint32(e.size)
			return factored{form: l.forms[e.form:end:end], inv: e.inv}, true
		}
	}
}

// table returns the words of e's table.
func (l *Library) table(e *libEntry) []uint64 {
	return l.tables[e.table : int(e.table)+bitvec.WordsFor(int(e.nv))]
}

// insert stores a copy of e as the form of the nv-variable table words,
// whose hash is h, unless the library holds the table already or has no
// room for it. The caller holds the write lock.
func (l *Library) insert(nv int, words []uint64, h uint64, e factored) {
	if _, ok := l.find(nv, words, h); ok {
		return // another pass stored it first
	}
	if 2*(l.entries+1) > len(l.index) && !l.growIndex() {
		return
	}
	tables, ok := reserve(l, l.tables, len(words), 8)
	if l.tables = tables; !ok {
		return
	}
	forms, ok := reserve(l, l.forms, len(e.form), 2)
	if l.forms = forms; !ok {
		return
	}
	*l.emptySlot(h) = libEntry{
		tag:   uint32(h),
		table: uint32(len(l.tables)),
		form:  uint32(len(l.forms)),
		size:  uint16(len(e.form)),
		nv:    uint8(nv),
		inv:   e.inv,
	}
	l.tables = append(l.tables, words...)
	l.forms = append(l.forms, e.form...)
	l.entries++
}

// growIndex doubles the index, or makes the first one, if the budget
// allows, and reports whether it did.
func (l *Library) growIndex() bool {
	n := max(2*len(l.index), minIndex)
	const size = int(unsafe.Sizeof(libEntry{}))
	if l.bytes+(n-len(l.index))*size > libraryBytes {
		return false
	}
	old := l.index
	l.index = make([]libEntry, n)
	l.bytes += (n - len(old)) * size
	for _, e := range old {
		if e.nv != 0 {
			*l.emptySlot(tableHash(int(e.nv), l.table(&e))) = e
		}
	}
	return true
}

// emptySlot returns the first empty index slot on the probe sequence of
// hash h.
func (l *Library) emptySlot(h uint64) *libEntry {
	mask := len(l.index) - 1
	i := int(h>>32) & mask
	for l.index[i].nv != 0 {
		i = (i + 1) & mask
	}
	return &l.index[i]
}

// reserve returns s with room for n more elements of size bytes each,
// growing its capacity by a quarter, or to what the budget leaves, when
// it is full. It reports false, and returns s as it was, when the budget
// leaves too little.
func reserve[T uint64 | uint16](l *Library, s []T, n, size int) ([]T, bool) {
	if len(s)+n <= cap(s) {
		return s, true
	}
	c := min(max(cap(s)+cap(s)/4, len(s)+n, 1024), cap(s)+(libraryBytes-l.bytes)/size)
	if c < len(s)+n {
		return s, false
	}
	l.bytes += (c - cap(s)) * size
	return append(make([]T, 0, c), s...), true
}

// build constructs the factored form over the leaf nodes in g and
// returns its output literal. A non-negative limit bounds the build's
// speculation cost: past it the build stops and reports false, and the
// caller drops the candidate (see sop.Workspace.BuildAIG).
func build[T int | int32](p *pass, g *aig.AIG, e factored, leaves []T, limit int) (aig.Lit, bool) {
	ws := p.ws
	ws.lits = ws.lits[:0]
	for _, l := range leaves {
		ws.lits = append(ws.lits, aig.MakeLit(int(l), false))
	}
	out, ok := ws.sop.BuildAIG(g, e.form, ws.lits, limit)
	return out.NotIf(e.inv), ok
}

// rewriteCuts is the number of cuts rewrite enumerates per node, its
// trivial cut included.
const rewriteCuts = 8

// Rewrite performs DAG-aware cut rewriting with 4-input cuts: for every
// node, each cut function's pre-factored implementation is speculatively
// built and the replacement with the best positive gain (node count
// decrease) is committed. With zero true, zero-gain replacements that
// change structure are also accepted.
func Rewrite(g *aig.AIG, zero bool) *aig.AIG {
	return runPass(nil, nil, g, func(p *pass, g *aig.AIG) *aig.AIG { return p.rewrite(g, zero) })
}

// rewrite is Rewrite on the pass's library and workspace. One
// speculation serves all of a node's cuts, each candidate rolled back
// before the next, and a candidate's build stops as soon as its gain can
// no longer beat the best so far: the first cut of greatest gain wins,
// so once that gain is g >= 0 a candidate must cost at most freed-g-1,
// and before it, at most freed, since no negative gain is accepted.
func (p *pass) rewrite(g *aig.AIG, zero bool) *aig.AIG {
	g.RecomputeRefs()
	g.RecomputeLevels()
	cuts := p.ws.cuts
	cuts.Enumerate(g, 4, rewriteCuts)
	// buildCut speculatively constructs the factored form of id's cut ci
	// in g within limit.
	buildCut := func(id, ci, limit int) (aig.Lit, bool) {
		return build(p, g, p.lookup(cuts.TT(id, ci)), cuts.Of(id)[ci].Leaves(), limit)
	}

	for _, id32 := range p.ws.walk.LiveAnds(g) {
		id := int(id32)
		if !g.IsAnd(id) || g.Ref(id) == 0 {
			continue
		}
		if aig.MakeLit(id, false) != g.Resolve(aig.MakeLit(id, false)) {
			continue // node was replaced earlier in this pass
		}
		// Leaves are judged before speculation dereferences id's cone,
		// which they may lie in.
		var usable uint64 // bit ci: cut ci may be rebuilt
		for ci, c := range cuts.Of(id) {
			if len(c.Leaves()) >= 2 && leavesUsable(g, id, c.Leaves()) {
				usable |= 1 << ci
			}
		}
		if usable == 0 {
			continue
		}
		bestGain, bestCut := -1<<30, -1
		freed := g.BeginSpeculate(id)
		for ; usable != 0 && bestGain < freed; usable &= usable - 1 {
			ci := bits.TrailingZeros64(usable)
			limit := freed
			if bestGain >= 0 {
				limit = freed - bestGain - 1
			}
			if newLit, ok := buildCut(id, ci, limit); ok && newLit.Node() != id {
				g.Touch(newLit)
				if gain := g.SpeculationGain(freed); gain > bestGain {
					bestGain, bestCut = gain, ci
				}
			}
			g.RollbackSpeculate()
		}
		if bestGain > 0 || zero && bestGain == 0 {
			newLit, _ := buildCut(id, bestCut, -1)
			g.CommitSpeculate(id, newLit)
		} else {
			g.AbortSpeculate(id)
		}
	}
	return g.Cleanup()
}

// leavesUsable reports whether every cut leaf is still a usable basis for
// resynthesis of root: alive (or PI/const), not itself replaced, and not
// the root.
func leavesUsable(g *aig.AIG, root int, leaves []int32) bool {
	for _, l32 := range leaves {
		l := int(l32)
		if l == root {
			return false
		}
		if g.IsAnd(l) {
			if g.Ref(l) == 0 {
				return false
			}
			if aig.MakeLit(l, false) != g.Resolve(aig.MakeLit(l, false)) {
				return false
			}
		}
	}
	return true
}

// Refactor performs reconvergence-driven refactoring: for each node a
// cut of up to K=10 leaves is computed, the cone function is collapsed to
// a truth table, refactored algebraically, and rebuilt if it reduces the
// node count (or keeps it equal, with zero true).
func Refactor(g *aig.AIG, zero bool) *aig.AIG {
	return runPass(nil, nil, g, func(p *pass, g *aig.AIG) *aig.AIG {
		return p.refactorK(g, zero, refactorLeaves, false)
	})
}

// refactorLeaves is the cut width of Refactor, the widest cone refactorK
// collapses.
const refactorLeaves = 10

// refactorK collapses each node's reconvergent cone of up to k leaves
// and rebuilds its factored form. Structured circuits (adder grids, S-box
// arrays) repeat cone functions heavily, across passes as well as within
// one, which is what the library catches.
func (p *pass) refactorK(g *aig.AIG, zero bool, k int, depthAware bool) *aig.AIG {
	g.RecomputeRefs()
	g.RecomputeLevels()
	cones := &p.ws.cones
	cones.Reset(g)
	for _, id32 := range p.ws.walk.LiveAnds(g) {
		id := int(id32)
		if !g.IsAnd(id) || g.Ref(id) == 0 {
			continue
		}
		if aig.MakeLit(id, false) != g.Resolve(aig.MakeLit(id, false)) {
			continue
		}
		// Nodes whose cone frees fewer than 2 nodes cannot yield positive
		// gain except by pure sharing; skipping them saves most of the
		// pass runtime (ABC's refactoring applies similar filtering).
		// The count is the one speculation starts from, so each cone is
		// dereferenced once; the cut and its table read only fanins,
		// which speculation leaves alone.
		freed := g.BeginSpeculate(id)
		if freed < 2 {
			g.AbortSpeculate(id)
			continue
		}
		leaves := cones.ReconvCut(id, k)
		if len(leaves) < 3 || slices.Contains(leaves, id) {
			g.AbortSpeculate(id)
			continue
		}
		tt, ok := cones.TT(id, leaves)
		if !ok {
			g.AbortSpeculate(id)
			continue
		}
		oldLevel := g.Level(id)
		// Every acceptance below needs gain >= 0, so a build that costs
		// more than freed is dropped as soon as it does.
		newLit, ok := build(p, g, p.lookup(tt), leaves, freed)
		if !ok || newLit.Node() == id {
			g.AbortSpeculate(id)
			continue
		}
		g.Touch(newLit)
		gain := g.SpeculationGain(freed)
		newLevel := g.Level(newLit.Node())
		accept := gain > 0 ||
			(zero && gain == 0) ||
			(depthAware && gain == 0 && newLevel < oldLevel)
		if accept {
			g.CommitSpeculate(id, newLit)
		} else {
			g.AbortSpeculate(id)
		}
	}
	return g.Cleanup()
}

// Apply runs the named transformations in sequence and returns the final
// graph along with per-step statistics.
//
// After every transformation the graph is renumbered into Cleanup's
// DFS-canonical form. Transformations are deterministic functions of the
// concrete representation (node numbering included), so canonicalizing
// each intermediate state makes structurally identical states
// representation-identical regardless of which transformation produced
// them; the prefix-memoized evaluation engine (internal/synth) relies on
// this to merge convergent flows under aig.StructuralFingerprint, and
// every other Apply caller gets the same flow semantics.
func Apply(g *aig.AIG, names []string) (*aig.AIG, []aig.Stats, error) {
	lib := NewLibrary()
	stats := make([]aig.Stats, 0, len(names))
	for _, n := range names {
		t, err := lib.ByName(n)
		if err != nil {
			return nil, nil, err
		}
		g = Step(t, g)
		stats = append(stats, g.Stats())
	}
	return g, stats, nil
}

// Step applies one transformation, whose result is already in canonical
// form (see Transform). This is the unit of flow execution shared by
// Apply and the memoized batch evaluator; both must use it so their
// intermediate states coincide bit-for-bit.
func Step(t Transform, g *aig.AIG) *aig.AIG {
	return t(g)
}
