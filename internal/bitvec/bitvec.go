// Package bitvec implements truth tables as bit vectors over up to 16
// variables. A truth table for k variables stores 2^k bits packed into
// 64-bit words; bit i holds the function value on the input minterm whose
// binary encoding is i (variable 0 is the least significant input).
//
// The package provides the primitives needed by cut-based logic
// resynthesis: variable truth tables, Boolean operations, Shannon
// cofactors, support detection, and canonical hashing. It mirrors the
// role of ABC's "kit" truth-table utilities.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxVars is the largest supported number of truth-table variables.
const MaxVars = 16

// TT is a truth table over a fixed number of variables. The zero value is
// not usable; construct with New, Const, or Var.
type TT struct {
	nvars int
	w     []uint64
}

// WordsFor returns the number of 64-bit words of a table over k
// variables.
func WordsFor(k int) int {
	if k <= 6 {
		return 1
	}
	return 1 << (k - 6)
}

// usedMask returns the mask of meaningful bits in the single word of a
// table with k <= 6 variables.
func usedMask(k int) uint64 {
	if k >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << k)) - 1
}

// New returns the constant-0 truth table over nvars variables.
func New(nvars int) TT {
	if nvars < 0 || nvars > MaxVars {
		panic(fmt.Sprintf("bitvec: invalid variable count %d", nvars))
	}
	return TT{nvars: nvars, w: make([]uint64, WordsFor(nvars))}
}

// Const returns the constant-0 or constant-1 table over nvars variables.
func Const(nvars int, v bool) TT {
	t := New(nvars)
	if v {
		for i := range t.w {
			t.w[i] = ^uint64(0)
		}
		t.mask()
	}
	return t
}

// varPattern holds the repeating bit patterns of the first six variables.
var varPattern = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// Var returns the projection function x_i over nvars variables.
func Var(nvars, i int) TT {
	if i < 0 || i >= nvars {
		panic(fmt.Sprintf("bitvec: variable %d out of range for %d vars", i, nvars))
	}
	t := New(nvars)
	FillVar(t.w, nvars, i)
	return t
}

// mask clears the unused high bits for tables with fewer than 6 variables.
func (t *TT) mask() {
	if t.nvars < 6 {
		t.w[0] &= usedMask(t.nvars)
	}
}

// NumVars returns the number of variables of t.
func (t TT) NumVars() int { return t.nvars }

// NumBits returns the number of minterms (2^nvars).
func (t TT) NumBits() int { return 1 << t.nvars }

// Clone returns an independent copy of t.
func (t TT) Clone() TT {
	c := TT{nvars: t.nvars, w: make([]uint64, len(t.w))}
	copy(c.w, t.w)
	return c
}

// Bit reports the value of the function on minterm i.
func (t TT) Bit(i int) bool {
	return t.w[i>>6]&(1<<(uint(i)&63)) != 0
}

// SetBit sets the value of the function on minterm i.
func (t *TT) SetBit(i int, v bool) {
	if v {
		t.w[i>>6] |= 1 << (uint(i) & 63)
	} else {
		t.w[i>>6] &^= 1 << (uint(i) & 63)
	}
}

func checkSame(a, b TT) {
	if a.nvars != b.nvars {
		panic(fmt.Sprintf("bitvec: mismatched variable counts %d vs %d", a.nvars, b.nvars))
	}
}

// And returns a AND b.
func And(a, b TT) TT {
	checkSame(a, b)
	t := New(a.nvars)
	for i := range t.w {
		t.w[i] = a.w[i] & b.w[i]
	}
	return t
}

// Or returns a OR b.
func Or(a, b TT) TT {
	checkSame(a, b)
	t := New(a.nvars)
	for i := range t.w {
		t.w[i] = a.w[i] | b.w[i]
	}
	return t
}

// Xor returns a XOR b.
func Xor(a, b TT) TT {
	checkSame(a, b)
	t := New(a.nvars)
	for i := range t.w {
		t.w[i] = a.w[i] ^ b.w[i]
	}
	return t
}

// Not returns the complement of a.
func Not(a TT) TT {
	t := New(a.nvars)
	for i := range t.w {
		t.w[i] = ^a.w[i]
	}
	t.mask()
	return t
}

// AndNot returns a AND NOT b.
func AndNot(a, b TT) TT {
	checkSame(a, b)
	t := New(a.nvars)
	for i := range t.w {
		t.w[i] = a.w[i] &^ b.w[i]
	}
	return t
}

// Mux returns s ? a : b (a when s is 1).
func Mux(s, a, b TT) TT {
	checkSame(s, a)
	checkSame(a, b)
	t := New(a.nvars)
	for i := range t.w {
		t.w[i] = (s.w[i] & a.w[i]) | (^s.w[i] & b.w[i])
	}
	t.mask()
	return t
}

// Equal reports whether a and b are the same function.
func Equal(a, b TT) bool {
	if a.nvars != b.nvars {
		return false
	}
	for i := range a.w {
		if a.w[i] != b.w[i] {
			return false
		}
	}
	return true
}

// IsConst0 reports whether t is the constant-0 function.
func (t TT) IsConst0() bool {
	for _, w := range t.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsConst1 reports whether t is the constant-1 function.
func (t TT) IsConst1() bool {
	if t.nvars < 6 {
		return t.w[0] == usedMask(t.nvars)
	}
	for _, w := range t.w {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// CountOnes returns the number of satisfying minterms.
func (t TT) CountOnes() int {
	n := 0
	for _, w := range t.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Cofactor0 returns the negative Shannon cofactor with respect to
// variable v, expanded back to the full variable set (the result does not
// depend on v).
func Cofactor0(t TT, v int) TT {
	r := t.Clone()
	if v < 6 {
		shift := uint(1) << uint(v)
		maskLo := ^varPattern[v]
		for i := range r.w {
			lo := r.w[i] & maskLo
			r.w[i] = lo | lo<<shift
		}
	} else {
		block := 1 << (v - 6)
		for i := 0; i < len(r.w); i += 2 * block {
			for j := 0; j < block; j++ {
				r.w[i+block+j] = r.w[i+j]
			}
		}
	}
	return r
}

// Cofactor1 returns the positive Shannon cofactor with respect to
// variable v, expanded back to the full variable set.
func Cofactor1(t TT, v int) TT {
	r := t.Clone()
	if v < 6 {
		shift := uint(1) << uint(v)
		maskHi := varPattern[v]
		for i := range r.w {
			hi := r.w[i] & maskHi
			r.w[i] = hi | hi>>shift
		}
	} else {
		block := 1 << (v - 6)
		for i := 0; i < len(r.w); i += 2 * block {
			for j := 0; j < block; j++ {
				r.w[i+j] = r.w[i+block+j]
			}
		}
	}
	return r
}

// DependsOn reports whether the function depends on variable v. It is
// allocation-free (hot path of ISOP's splitting-variable search).
func (t TT) DependsOn(v int) bool {
	if v >= t.nvars {
		return false
	}
	if v < 6 {
		shift := uint(1) << uint(v)
		lowHalf := ^varPattern[v]
		if t.nvars < 6 {
			lowHalf &= usedMask(t.nvars)
		}
		for _, w := range t.w {
			if ((w>>shift)^w)&lowHalf != 0 {
				return true
			}
		}
		return false
	}
	block := 1 << (v - 6)
	for i := 0; i < len(t.w); i += 2 * block {
		for j := 0; j < block; j++ {
			if t.w[i+j] != t.w[i+block+j] {
				return true
			}
		}
	}
	return false
}

// Support returns the indices of variables the function depends on.
func (t TT) Support() []int {
	var s []int
	for v := 0; v < t.nvars; v++ {
		if t.DependsOn(v) {
			s = append(s, v)
		}
	}
	return s
}

// Word kernels. The functions below work in place on the backing words
// of a table over nvars variables (WordsFor(nvars) words, unused high
// bits clear when nvars < 6) and never allocate, so cut enumeration, cone
// evaluation and ISOP can run them per candidate without feeding the
// garbage collector.

// VarWord returns one word of the table of x_i for i < 6: the pattern
// every word of such a variable's table repeats.
func VarWord(i int) uint64 { return varPattern[i] }

// WordMask returns the meaningful bits of a word of a table over nvars
// variables: all of them from six variables up.
func WordMask(nvars int) uint64 { return usedMask(nvars) }

// FillVar writes the table of x_i over nvars variables into w.
func FillVar(w []uint64, nvars, i int) {
	if i < 6 {
		for j := range w {
			w[j] = varPattern[i]
		}
	} else {
		// Variable i toggles in blocks of 2^(i-6) words.
		block := 1 << (i - 6)
		for j := range w {
			w[j] = 0
			if j&block != 0 {
				w[j] = ^uint64(0)
			}
		}
	}
	w[0] &= usedMask(nvars)
}

// SwapVars exchanges variables a and b (both < nvars) of the table held
// in w: the result r satisfies r(..x_a..x_b..) = t(..x_b..x_a..).
func SwapVars(w []uint64, nvars, a, b int) {
	if a == b {
		return
	}
	if a > b {
		a, b = b, a
	}
	switch {
	case b < 6:
		// Minterms with x_a=1, x_b=0 trade places with x_a=0, x_b=1,
		// which sit shift bits higher in the same word.
		shift := uint(1)<<uint(b) - uint(1)<<uint(a)
		m := varPattern[a] &^ varPattern[b]
		for i := range w {
			x := w[i]
			w[i] = x&^(m|m<<shift) | (x&m)<<shift | (x>>shift)&m
		}
	case a < 6:
		// x_b selects between word blocks: the x_a=1 bits of the low word
		// trade places with the x_a=0 bits of the high word.
		shift := uint(1) << uint(a)
		hiA := varPattern[a]
		block := 1 << uint(b-6)
		for i := 0; i < len(w); i += 2 * block {
			for j := i; j < i+block; j++ {
				lo, hi := w[j], w[j+block]
				w[j] = lo&^hiA | (hi&^hiA)<<shift
				w[j+block] = (lo&hiA)>>shift | hi&hiA
			}
		}
	default:
		// Both select word blocks: swap the x_a=1, x_b=0 blocks with the
		// x_a=0, x_b=1 ones.
		ba, bb := 1<<uint(a-6), 1<<uint(b-6)
		for j := range w {
			if j&ba != 0 && j&bb == 0 {
				w[j], w[j-ba+bb] = w[j-ba+bb], w[j]
			}
		}
	}
}

// Stretch moves the variables of a table that depends only on its first
// len(pos) variables so that variable i becomes variable pos[i]. pos must
// be strictly increasing with pos[i] >= i and pos[len(pos)-1] < nvars:
// the lifting of a cut function onto a superset of its leaves.
func Stretch(w []uint64, nvars int, pos []int) {
	for i := len(pos) - 1; i >= 0; i-- {
		if pos[i] != i {
			SwapVars(w, nvars, i, pos[i])
		}
	}
}

// FromWords returns the table over nvars variables whose backing words
// are w (WordsFor(nvars) of them, high bits clear when nvars < 6). The
// table aliases w: the caller must not change w while the table is in
// use. It lets kernels that compute into scratch hand results to the TT
// API without a copy.
func FromWords(nvars int, w []uint64) TT {
	if len(w) != WordsFor(nvars) {
		panic(fmt.Sprintf("bitvec: %d words for %d variables", len(w), nvars))
	}
	return TT{nvars: nvars, w: w}
}

// Hash returns a 64-bit FNV-1a hash of the function, suitable for
// hash-consing truth tables of equal variable counts.
func (t TT) Hash() uint64 {
	const offset = 1469598103934665603
	const prime = 1099511628211
	h := uint64(offset)
	h = (h ^ uint64(t.nvars)) * prime
	for _, w := range t.w {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (w >> uint(s) & 0xff)) * prime
		}
	}
	return h
}

// Words returns the backing words of t. The slice must not be modified.
func (t TT) Words() []uint64 { return t.w }

// String renders the truth table as a hex string, most significant word
// first, e.g. "0x8" for AND over 2 variables.
func (t TT) String() string {
	digits := max((t.NumBits()+3)/4, 1)
	var b strings.Builder
	b.Grow(2 + digits)
	b.WriteString("0x")
	for i := digits - 1; i >= 0; i-- {
		nib := (t.w[(i*4)>>6] >> uint((i*4)&63)) & 0xF
		b.WriteByte("0123456789abcdef"[nib])
	}
	return b.String()
}
