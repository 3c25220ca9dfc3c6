// Package flow models synthesis flows as defined in Section 2.1 of the
// paper: a flow is a permutation of a transformation multiset. It
// provides m-repetition flow spaces, search-space counting (Remark 3,
// including the Mendelson limited-repetition recursion), random sampling
// of unique flows, the one-hot binary matrix representation of Section
// 3.2.1, and flow parsing/printing.
package flow

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
)

// Flow is a sequence of transformation indices into a Space alphabet.
type Flow struct {
	Indices []int
}

// Space is the set of available flows: permutations of M copies of each
// of the alphabet's transformations.
type Space struct {
	Alphabet []string
	M        int
}

// NewSpace builds an m-repetition flow space over the given alphabet.
func NewSpace(alphabet []string, m int) Space {
	if len(alphabet) == 0 || m < 1 {
		panic("flow: empty space")
	}
	return Space{Alphabet: append([]string(nil), alphabet...), M: m}
}

// N returns the alphabet size n.
func (s Space) N() int { return len(s.Alphabet) }

// Length returns the flow length L = n*m (Remark 2).
func (s Space) Length() int { return len(s.Alphabet) * s.M }

// Count returns the number of distinct flows in the space:
// L! / (M!)^n (permutations of the multiset), which equals the Mendelson
// count f(n, L, m) at full length L = n·m.
func (s Space) Count() *big.Int {
	L := s.Length()
	num := factorial(L)
	mf := factorial(s.M)
	den := new(big.Int).SetInt64(1)
	for i := 0; i < s.N(); i++ {
		den.Mul(den, mf)
	}
	return num.Div(num, den)
}

func factorial(n int) *big.Int {
	return new(big.Int).MulRange(1, int64(n))
}

// CountLimitedRepetition computes f(n, L, m): the number of length-L
// sequences over n symbols where each symbol appears at most m times
// (Mendelson, "On permutations with limited repetition"; Remark 3 of the
// paper gives the recursion
// f(n, L+1, m) = n·f(n, L, m) − n·C(L, m)·f(n−1, L−m, m)).
func CountLimitedRepetition(n, L, m int) *big.Int {
	if L < 0 {
		return big.NewInt(0)
	}
	memo := map[[2]int]*big.Int{}
	var f func(n, L int) *big.Int
	f = func(n, L int) *big.Int {
		if L < 0 {
			return big.NewInt(0)
		}
		if L == 0 {
			return big.NewInt(1)
		}
		if n == 0 {
			return big.NewInt(0) // no symbols but positive length
		}
		if L > n*m {
			return big.NewInt(0)
		}
		key := [2]int{n, L}
		if v, ok := memo[key]; ok {
			return v
		}
		// f(n, L) = n·f(n, L−1) − n·C(L−1, m)·f(n−1, L−1−m)
		res := new(big.Int).Mul(big.NewInt(int64(n)), f(n, L-1))
		sub := new(big.Int).Binomial(int64(L-1), int64(m))
		sub.Mul(sub, big.NewInt(int64(n)))
		sub.Mul(sub, f(n-1, L-1-m))
		res.Sub(res, sub)
		memo[key] = res
		return res
	}
	return f(n, L)
}

// NonRepetitionCount returns N = n! (Remark 1 upper bound, reached when
// all transformations are independent).
func NonRepetitionCount(n int) *big.Int { return factorial(n) }

// Random returns a uniformly random flow: a shuffle of the multiset with
// M copies of each transformation.
func (s Space) Random(rng *rand.Rand) Flow {
	L := s.Length()
	idx := make([]int, 0, L)
	for t := 0; t < s.N(); t++ {
		for r := 0; r < s.M; r++ {
			idx = append(idx, t)
		}
	}
	rng.Shuffle(L, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return Flow{Indices: idx}
}

// Holds reports whether the space contains at least n distinct flows.
func (s Space) Holds(n int) bool {
	return big.NewInt(int64(n)).Cmp(s.Count()) <= 0
}

// RandomUnique returns count distinct random flows. It panics if count
// exceeds the space size.
func (s Space) RandomUnique(rng *rand.Rand, count int) []Flow {
	if !s.Holds(count) {
		panic("flow: requested more unique flows than the space contains")
	}
	seen := make(map[string]struct{}, count)
	out := make([]Flow, 0, count)
	for len(out) < count {
		f := s.Random(rng)
		k := f.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, f)
	}
	return out
}

// Enumerate lists all flows of the space up to limit (0 = no limit), in
// lexicographic index order. Intended for small spaces and tests.
func (s Space) Enumerate(limit int) []Flow {
	var out []Flow
	counts := make([]int, s.N())
	cur := make([]int, 0, s.Length())
	var rec func()
	rec = func() {
		if limit > 0 && len(out) >= limit {
			return
		}
		if len(cur) == s.Length() {
			out = append(out, Flow{Indices: append([]int(nil), cur...)})
			return
		}
		for t := 0; t < s.N(); t++ {
			if counts[t] == s.M {
				continue
			}
			counts[t]++
			cur = append(cur, t)
			rec()
			cur = cur[:len(cur)-1]
			counts[t]--
		}
	}
	rec()
	return out
}

// Names resolves the flow's transformation names.
func (f Flow) Names(s Space) []string {
	out := make([]string, len(f.Indices))
	for i, t := range f.Indices {
		out[i] = s.Alphabet[t]
	}
	return out
}

// Key returns a compact unique key of the flow (for dedup sets).
func (f Flow) Key() string {
	b := make([]byte, len(f.Indices))
	for i, t := range f.Indices {
		b[i] = byte('a' + t)
	}
	return string(b)
}

// String renders the flow as "t0; t1; ...".
func (f Flow) String(s Space) string {
	return strings.Join(f.Names(s), "; ")
}

// TextLen returns the length of every flow's String in the space: each
// transformation name appears M times, joined by "; ".
func (s Space) TextLen() int {
	n := 2 * (s.Length() - 1)
	for _, a := range s.Alphabet {
		n += s.M * len(a)
	}
	return n
}

// Parse parses a "t0; t1; ..." flow string against the space alphabet and
// validates that it is a proper m-repetition permutation.
func (s Space) Parse(text string) (Flow, error) {
	parts := strings.Split(text, ";")
	var idx []int
	lookup := map[string]int{}
	for i, a := range s.Alphabet {
		lookup[a] = i
	}
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		t, ok := lookup[p]
		if !ok {
			return Flow{}, fmt.Errorf("flow: unknown transformation %q", p)
		}
		idx = append(idx, t)
	}
	f := Flow{Indices: idx}
	if err := s.Validate(f); err != nil {
		return Flow{}, err
	}
	return f, nil
}

// Validate checks that the flow is a permutation of the space multiset.
func (s Space) Validate(f Flow) error {
	if len(f.Indices) != s.Length() {
		return fmt.Errorf("flow: length %d, want %d", len(f.Indices), s.Length())
	}
	counts := make([]int, s.N())
	for _, t := range f.Indices {
		if t < 0 || t >= s.N() {
			return fmt.Errorf("flow: index %d out of range", t)
		}
		counts[t]++
	}
	for t, c := range counts {
		if c != s.M {
			return fmt.Errorf("flow: transformation %q used %d times, want %d", s.Alphabet[t], c, s.M)
		}
	}
	return nil
}

// EncodeOffset is the single source of truth for the one-hot layout:
// flow position j with transformation t occupies flat element j·n + t of
// the encoding (row j, column t of the L×n matrix of Section 3.2.1).
// Encode and EncodeInto32 both write through this offset, and the
// engines' sparse first-convolution paths read the same flat
// index — change the layout here and every producer/consumer moves
// together instead of silently desyncing.
func (s Space) EncodeOffset(j, t int) int { return j*s.N() + t }

// OneHot returns the L-by-n binary matrix M of Section 3.2.1: row j has a
// single 1 in the column of the j-th transformation.
func (f Flow) OneHot(s Space) [][]uint8 {
	m := make([][]uint8, len(f.Indices))
	for j, t := range f.Indices {
		row := make([]uint8, s.N())
		row[t] = 1
		m[j] = row
	}
	return m
}

// FromOneHot reconstructs a flow from its one-hot matrix.
func FromOneHot(m [][]uint8) (Flow, error) {
	idx := make([]int, len(m))
	for j, row := range m {
		found := -1
		for t, v := range row {
			if v == 1 {
				if found >= 0 {
					return Flow{}, fmt.Errorf("flow: row %d has multiple ones", j)
				}
				found = t
			} else if v != 0 {
				return Flow{}, fmt.Errorf("flow: row %d not binary", j)
			}
		}
		if found < 0 {
			return Flow{}, fmt.Errorf("flow: row %d has no one", j)
		}
		idx[j] = found
	}
	return Flow{Indices: idx}, nil
}

// Encode returns the one-hot matrix flattened row-major into float64s and
// reshaped to rows x cols (the paper reshapes 24×6 to 12×12 for the CNN).
// rows*cols must equal L*n.
func (f Flow) Encode(s Space, rows, cols int) []float64 {
	L, n := s.Length(), s.N()
	if rows*cols != L*n {
		panic(fmt.Sprintf("flow: cannot reshape %dx%d to %dx%d", L, n, rows, cols))
	}
	out := make([]float64, L*n)
	for j, t := range f.Indices {
		out[s.EncodeOffset(j, t)] = 1
	}
	return out
}

// EncodeInto32 writes the flow's flattened one-hot encoding into dst as
// float32s (zeros and ones, so exact), which must hold exactly L*n
// elements. It is the one streaming encoder: every prediction Source
// over flows fills chunk buffers through it. The flattened encoding is
// independent of the 2-D reshape (row-major order is preserved by any
// rows×cols factorization), so it needs no shape argument. Every
// element of dst is written.
func (f Flow) EncodeInto32(s Space, dst []float32) {
	L, n := s.Length(), s.N()
	if len(dst) != L*n {
		panic(fmt.Sprintf("flow: encoding needs %d elements, dst has %d", L*n, len(dst)))
	}
	for i := range dst {
		dst[i] = 0
	}
	for j, t := range f.Indices {
		dst[s.EncodeOffset(j, t)] = 1
	}
}

// DefaultAlphabet is the transformation set S of the paper's experiments.
var DefaultAlphabet = []string{"balance", "restructure", "rewrite", "refactor", "rewrite -z", "refactor -z"}

// PaperSpace returns the paper's experiment space: S with 4 repetitions
// (n=6, m=4, L=24).
func PaperSpace() Space { return NewSpace(DefaultAlphabet, 4) }
