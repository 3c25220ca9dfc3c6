// Package sop implements two-level (sum-of-products) logic manipulation:
// irredundant SOP extraction from truth tables via the Minato–Morreale
// algorithm, algebraic (literal) factoring, and construction of factored
// forms into AIGs. It is the resynthesis core used by the refactor,
// restructure and rewrite transformations, standing in for the SIS/ABC
// factoring machinery.
package sop

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"flowgen/internal/aig"
	"flowgen/internal/bitvec"
)

// Cube is a product term over up to 32 variables: Pos bit i means literal
// x_i appears positively, Neg bit i means it appears negated. A variable
// may not appear in both masks.
type Cube struct {
	Pos, Neg uint32
}

// NumLits returns the number of literals in the cube.
func (c Cube) NumLits() int {
	n := 0
	for m := c.Pos | c.Neg; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// SOP is a sum (disjunction) of cubes over a fixed variable count.
type SOP struct {
	NVars int
	Cubes []Cube
}

// NumLiterals returns the total literal count of the cover.
func (s SOP) NumLiterals() int {
	n := 0
	for _, c := range s.Cubes {
		n += c.NumLits()
	}
	return n
}

// String renders the SOP in PLA-like textual form, e.g. "ab' + c".
func (s SOP) String() string {
	if len(s.Cubes) == 0 {
		return "0"
	}
	var terms []string
	for _, c := range s.Cubes {
		if c.Pos == 0 && c.Neg == 0 {
			terms = append(terms, "1")
			continue
		}
		var b strings.Builder
		for v := 0; v < s.NVars; v++ {
			if c.Pos&(1<<uint(v)) != 0 {
				fmt.Fprintf(&b, "x%d", v)
			} else if c.Neg&(1<<uint(v)) != 0 {
				fmt.Fprintf(&b, "x%d'", v)
			}
		}
		terms = append(terms, b.String())
	}
	return strings.Join(terms, " + ")
}

// TT evaluates the SOP back into a truth table over nvars variables.
func (s SOP) TT() bitvec.TT {
	r := bitvec.Const(s.NVars, false)
	for _, c := range s.Cubes {
		t := bitvec.Const(s.NVars, true)
		for v := 0; v < s.NVars; v++ {
			if c.Pos&(1<<uint(v)) != 0 {
				t = bitvec.And(t, bitvec.Var(s.NVars, v))
			} else if c.Neg&(1<<uint(v)) != 0 {
				t = bitvec.AndNot(t, bitvec.Var(s.NVars, v))
			}
		}
		r = bitvec.Or(r, t)
	}
	return r
}

// Workspace holds the scratch memory of the resynthesis kernels: the
// truth-table stack of ISOP, the cover it builds, the partition buffer of
// factoring, the forms it emits and the operand stack of BuildAIG. Once
// its buffers have grown, none of them allocates. A Form returned by a
// Workspace method belongs to the workspace until its next factoring
// call; a caller that keeps it copies it. A Workspace is not safe for
// concurrent use: a synthesis pass owns one. The zero value is ready to
// use.
type Workspace struct {
	mem   []uint64 // ISOP table stack, in use up to top
	top   int
	cubes []Cube    // cover under construction
	part  []Cube    // factoring partition scratch
	form  Form      // form under construction
	alt   Form      // FactorTT: the positive phase's form
	lits  []aig.Lit // BuildAIG operand stack
}

// ISOP computes an irredundant sum-of-products cover of the fully
// specified function f using the Minato–Morreale interval algorithm.
func ISOP(f bitvec.TT) SOP {
	var w Workspace
	cubes := w.cover(f, false)
	return SOP{NVars: f.NumVars(), Cubes: append([]Cube(nil), cubes...)}
}

// cover computes the ISOP cover of f, or of NOT f when compl is set,
// into w.cubes and returns it; the slice is valid until the next call.
//
// Tables are handled as in ABC's Kit_TruthIsop: a function of fewer than
// six variables is replicated across its word, and each cofactor of a
// splitting variable v >= 6 is simply half of its parent's words, so the
// recursion shrinks its tables instead of copying them at full width.
func (w *Workspace) cover(f bitvec.TT, compl bool) []Cube {
	nv := f.NumVars()
	// Bound on the stack: two tables of f's width at the top; per
	// recursion level on a path, five tables of the split variable's
	// width, which sum to under five of f's width over the levels that
	// split at variables >= 6, and nine words on each of the at most six
	// levels below.
	if need := 7*len(f.Words()) + 54; len(w.mem) < need {
		w.mem = make([]uint64, need)
	}
	w.top = 0
	t := w.alloc(len(f.Words()))
	copy(t, f.Words())
	if nv < 6 {
		for b := 1 << uint(nv); b < 64; b <<= 1 {
			t[0] |= t[0] << uint(b)
		}
	}
	if compl {
		for i := range t {
			t[i] = ^t[i]
		}
	}
	w.cubes = w.cubes[:0]
	w.isop(t, t, w.alloc(len(t)), nv)
	return w.cubes
}

// alloc takes n words off the table stack. The caller releases them by
// restoring w.top.
func (w *Workspace) alloc(n int) []uint64 {
	l := w.top
	w.top += n
	return w.mem[l:w.top:w.top]
}

// isop appends an irredundant cover S with L <= S <= U to w.cubes and
// writes the covered function into r. L, U and r are tables of functions
// of the first nv variables, WordsFor(nv) words each.
func (w *Workspace) isop(L, U, r []uint64, nv int) {
	if allWords(L, 0) {
		fillWords(r, 0)
		return
	}
	if allWords(U, ^uint64(0)) {
		fillWords(r, ^uint64(0))
		w.cubes = append(w.cubes, Cube{})
		return
	}
	// Splitting variable: the highest variable in the support of L or U.
	v := nv - 1
	for v >= 0 && !dependsOn(L, v) && !dependsOn(U, v) {
		v--
	}
	if v < 0 {
		// L is constant but not 0, U constant but not 1: impossible when
		// L <= U holds; defensive fallback.
		fillWords(r, ^uint64(0))
		w.cubes = append(w.cubes, Cube{})
		return
	}
	mark := w.top
	n := bitvec.WordsFor(v)
	var L0, L1, U0, U1 []uint64
	if v >= 6 {
		L0, L1, U0, U1 = L[:n], L[n:2*n], U[:n], U[n:2*n]
	} else {
		L0, L1, U0, U1 = w.alloc(1), w.alloc(1), w.alloc(1), w.alloc(1)
		L0[0], L1[0] = cofactors(L[0], v)
		U0[0], U1[0] = cofactors(U[0], v)
	}
	lt, ut := w.alloc(n), w.alloc(n)
	r0, r1, r2 := w.alloc(n), w.alloc(n), w.alloc(n)

	// Minterms coverable only with literal v'.
	c0 := len(w.cubes)
	for i := range lt {
		lt[i] = L0[i] &^ U1[i]
	}
	w.isop(lt, U0, r0, v)
	// Minterms coverable only with literal v.
	c1 := len(w.cubes)
	for i := range lt {
		lt[i] = L1[i] &^ U0[i]
	}
	w.isop(lt, U1, r1, v)
	c2 := len(w.cubes)
	// What remains must be covered by cubes independent of v.
	for i := range lt {
		lt[i] = L0[i]&^r0[i] | L1[i]&^r1[i]
		ut[i] = U0[i] & U1[i]
	}
	w.isop(lt, ut, r2, v)

	bit := uint32(1) << uint(v)
	for i := c0; i < c1; i++ {
		w.cubes[i].Neg |= bit
	}
	for i := c1; i < c2; i++ {
		w.cubes[i].Pos |= bit
	}
	// r = r2 | r0 & x_v' | r1 & x_v, repeated over r's words.
	if v >= 6 {
		for i := 0; i < n; i++ {
			r[i] = r2[i] | r0[i]
			r[n+i] = r2[i] | r1[i]
		}
		for i := 2 * n; i < len(r); i += 2 * n {
			copy(r[i:i+2*n], r[:2*n])
		}
	} else {
		x := bitvec.VarWord(v)
		fillWords(r, r2[0]|r0[0]&^x|r1[0]&x)
	}
	w.top = mark
}

// cofactors returns the negative and positive cofactors of a replicated
// one-word table with respect to variable v < 6.
func cofactors(t uint64, v int) (uint64, uint64) {
	shift := uint(1) << uint(v)
	x := bitvec.VarWord(v)
	lo, hi := t&^x, t&x
	return lo | lo<<shift, hi | hi>>shift
}

// dependsOn reports whether the table depends on variable v. One-word
// tables are replicated, so no bits need masking.
func dependsOn(t []uint64, v int) bool {
	if v < 6 {
		shift := uint(1) << uint(v)
		lo := ^bitvec.VarWord(v)
		for _, x := range t {
			if (x>>shift^x)&lo != 0 {
				return true
			}
		}
		return false
	}
	block := 1 << uint(v-6)
	for i := 0; i < len(t); i += 2 * block {
		for j := i; j < i+block; j++ {
			if t[j] != t[j+block] {
				return true
			}
		}
	}
	return false
}

func allWords(t []uint64, x uint64) bool {
	for _, y := range t {
		if y != x {
			return false
		}
	}
	return true
}

func fillWords(t []uint64, x uint64) {
	for i := range t {
		t[i] = x
	}
}

// Form is a factored form in postfix order, and holds no pointers. Each
// code pushes one result onto an operand stack: a constant, a literal of
// a variable, or the AND or OR of the n results on top of the stack,
// which it pops. A form leaves exactly one result, its function.
type Form []uint16

// The top two bits of a code select its kind. The low 14 bits hold a
// constant's value, a literal's variable<<1|negation, or an AND's or OR's
// operand count. Counts stay far below 1<<14: factoring builds binary
// ANDs and ORs, products of one cube's at most 32 literals, and sums of
// cubes that share no literal, of which there are at most 65.
const (
	codeConst uint16 = iota << 14
	codeLit
	codeAnd
	codeOr

	codeKind = codeOr
)

// NumLiterals counts the form's literals.
func (f Form) NumLiterals() int {
	n := 0
	for _, c := range f {
		if c&codeKind == codeLit {
			n++
		}
	}
	return n
}

// String renders the form with x<i> variables, e.g. "x0*(x1 + x2')".
func (f Form) String() string {
	type term struct {
		s  string
		or bool
	}
	var stack []term
	for _, c := range f {
		x := int(c &^ codeKind)
		switch c & codeKind {
		case codeConst:
			stack = append(stack, term{s: fmt.Sprint(x)})
		case codeLit:
			s := fmt.Sprintf("x%d", x>>1)
			if x&1 != 0 {
				s += "'"
			}
			stack = append(stack, term{s: s})
		default:
			or := c&codeKind == codeOr
			args := stack[len(stack)-x:]
			parts := make([]string, x)
			for i, a := range args {
				parts[i] = a.s
				if !or && a.or {
					parts[i] = "(" + a.s + ")"
				}
			}
			sep := "*"
			if or {
				sep = " + "
			}
			stack = append(stack[:len(stack)-x], term{strings.Join(parts, sep), or})
		}
	}
	if len(stack) != 1 {
		return "?"
	}
	return stack[0].s
}

// emit appends one code to the form under construction.
func (w *Workspace) emit(kind uint16, x int) {
	w.form = append(w.form, kind|uint16(x))
}

// lit emits literal v, negated when neg is set.
func (w *Workspace) lit(v int, neg bool) {
	x := v << 1
	if neg {
		x |= 1
	}
	w.emit(codeLit, x)
}

// Factor converts an SOP cover into a factored form using recursive
// literal factoring (the "quick factor" algebraic method): the most
// frequent literal is factored out, and quotient and remainder are
// factored recursively.
func Factor(s SOP) Form {
	var w Workspace
	w.factor(append([]Cube(nil), s.Cubes...))
	return w.form
}

// factor factors the cover into w.form, reordering and rewriting cubes in
// place.
func (w *Workspace) factor(cubes []Cube) {
	w.form = w.form[:0]
	if len(cubes) == 0 {
		w.emit(codeConst, 0)
		return
	}
	// Tautology cube present?
	for _, c := range cubes {
		if c.Pos == 0 && c.Neg == 0 {
			w.emit(codeConst, 1)
			return
		}
	}
	w.factorCubes(cubes)
}

// cube emits the product of a cube's literals, in variable order.
func (w *Workspace) cube(c Cube) {
	n := 0
	for m := c.Pos | c.Neg; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		w.lit(v, c.Neg&(1<<uint(v)) != 0)
		n++
	}
	switch n {
	case 0:
		w.emit(codeConst, 1)
	case 1:
	default:
		w.emit(codeAnd, n)
	}
}

func (w *Workspace) factorCubes(cubes []Cube) {
	if len(cubes) == 1 {
		w.cube(cubes[0])
		return
	}
	// Count literal occurrences: positive phases in [0,32), negative in
	// [32,64). The most frequent literal wins, the lowest index on ties;
	// only literals that occur are scanned, in index order.
	var count [64]int32
	var present uint64 // bit i set when literal i occurs
	for _, c := range cubes {
		present |= uint64(c.Pos) | uint64(c.Neg)<<32
		for m := c.Pos; m != 0; m &= m - 1 {
			count[bits.TrailingZeros32(m)]++
		}
		for m := c.Neg; m != 0; m &= m - 1 {
			count[32+bits.TrailingZeros32(m)]++
		}
	}
	best, bestCount := -1, int32(1)
	for m := present; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); count[i] > bestCount {
			best, bestCount = i, count[i]
		}
	}
	if best < 0 {
		// No literal shared by two cubes: plain disjunction of products.
		for _, c := range cubes {
			w.cube(c)
		}
		w.emit(codeOr, len(cubes))
		return
	}
	v, neg := best, false
	if best >= 32 {
		v, neg = best-32, true
	}
	bit := uint32(1) << uint(v)
	// Stable partition: the quotient (cubes with the literal, which is
	// removed) moves to the front, the remainder follows in order.
	rem := w.part[:0]
	nq := 0
	for _, c := range cubes {
		if neg && c.Neg&bit != 0 || !neg && c.Pos&bit != 0 {
			c.Pos &^= bit
			c.Neg &^= bit
			cubes[nq] = c
			nq++
		} else {
			rem = append(rem, c)
		}
	}
	copy(cubes[nq:], rem)
	w.part = rem[:0]
	quot := cubes[:nq]

	// lit * quotient, or lit alone when the quotient is 1.
	w.lit(v, neg)
	if len(quot) != 1 || quot[0].Pos != 0 || quot[0].Neg != 0 {
		w.factorCubes(quot)
		w.emit(codeAnd, 2)
	}
	if nq == len(cubes) {
		return
	}
	w.factorCubes(cubes[nq:])
	w.emit(codeOr, 2)
}

// FactorTT composes ISOP and Factor, choosing whichever of f's or its
// complement's factored form has fewer literals (the complement costs one
// extra output inversion, which is free in an AIG). The returned bool
// reports whether the form computes NOT f. The form belongs to w until
// its next factoring call.
func (w *Workspace) FactorTT(f bitvec.TT) (Form, bool) {
	w.factor(w.cover(f, false))
	w.form, w.alt = w.alt, w.form
	w.factor(w.cover(f, true))
	if w.form.NumLiterals() < w.alt.NumLiterals() {
		return w.form, true
	}
	return w.alt, false
}

// FactorTTFast is the large-cone variant used by refactoring: for tables
// over more than 8 variables, only the phase with fewer minterms is
// factored (the other phase's ISOP is usually larger and twice the ISOP
// work dominates refactoring runtime); small tables use both phases.
func (w *Workspace) FactorTTFast(f bitvec.TT) (Form, bool) {
	if f.NumVars() <= 8 {
		return w.FactorTT(f)
	}
	compl := f.CountOnes() > f.NumBits()/2
	w.factor(w.cover(f, compl))
	return w.form, compl
}

// BuildAIG constructs the form over the given leaf literals in g and
// returns the output literal. The form runs on w's operand stack: each
// AND or OR combines the operands on top of the stack into a balanced
// tree ordered by current node level, minimizing added depth, and
// replaces them with its result.
//
// A limit of zero or more bounds the build of a speculating graph: it
// stops after the first And that raises g.SpeculationCost above limit
// and reports ok false, leaving the part built so far for the caller to
// roll back or abort. Cost never falls during a build, so a build that
// stops would have ended above the limit. A negative limit never stops.
func (w *Workspace) BuildAIG(g *aig.AIG, f Form, leaves []aig.Lit, limit int) (out aig.Lit, ok bool) {
	w.lits = w.lits[:0]
	for _, c := range f {
		x := int(c &^ codeKind)
		switch c & codeKind {
		case codeConst:
			w.lits = append(w.lits, aig.ConstFalse.NotIf(x != 0))
		case codeLit:
			w.lits = append(w.lits, leaves[x>>1].NotIf(x&1 != 0))
		default:
			top := len(w.lits) - x
			if w.lits[top], ok = combineBalanced(g, w.lits[top:], c&codeKind == codeOr, limit); !ok {
				return 0, false
			}
			w.lits = w.lits[:top+1]
		}
	}
	return w.lits[0], true
}

// combineBalanced reduces the literals with AND (or OR when disj is true)
// by repeatedly combining the two lowest-level operands, producing a
// depth-balanced tree. It works in place on work, and stops, reporting
// false, once a combination raises g.SpeculationCost above a
// non-negative limit.
//
// The operands are sorted once. Each new literal then goes where sorting
// the remaining operands followed by it would put it: on up to
// maxInsertion operands slices.SortFunc is a stable insertion sort, so
// that is after every operand of equal or lower level. Over more
// operands SortFunc's order among equal levels is its own, so it sorts
// again.
func combineBalanced(g *aig.AIG, work []aig.Lit, disj bool, limit int) (aig.Lit, bool) {
	byLevel := func(a, b aig.Lit) int { return g.Level(a.Node()) - g.Level(b.Node()) }
	slices.SortFunc(work, byLevel)
	for len(work) > 1 {
		var n aig.Lit
		if disj {
			n = g.Or(work[0], work[1])
		} else {
			n = g.And(work[0], work[1])
		}
		if limit >= 0 && g.SpeculationCost() > limit {
			return 0, false
		}
		// Drop the first operand: the second's slot, now work[0], is
		// free, and work[1:] is the sorted rest.
		work = work[1:]
		if len(work) > maxInsertion {
			copy(work, work[1:])
			work[len(work)-1] = n
			slices.SortFunc(work, byLevel)
			continue
		}
		lvl, i := g.Level(n.Node()), 1
		for ; i < len(work) && g.Level(work[i].Node()) <= lvl; i++ {
			work[i-1] = work[i]
		}
		work[i-1] = n
	}
	return work[0], true
}

// maxInsertion is the longest slice slices.SortFunc sorts by insertion
// (pdqsort's maxInsertion).
const maxInsertion = 12
