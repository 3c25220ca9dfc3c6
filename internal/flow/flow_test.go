package flow

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCountExample2(t *testing.T) {
	// Paper Example 2: n=2, m=2 -> 6 flows.
	s := NewSpace([]string{"p0", "p1"}, 2)
	if got := s.Count().Int64(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	flows := s.Enumerate(0)
	if len(flows) != 6 {
		t.Fatalf("enumerate found %d flows, want 6", len(flows))
	}
	seen := map[string]bool{}
	for _, f := range flows {
		if err := s.Validate(f); err != nil {
			t.Fatal(err)
		}
		if seen[f.Key()] {
			t.Fatal("duplicate flow enumerated")
		}
		seen[f.Key()] = true
	}
}

func TestNonRepetitionCounts(t *testing.T) {
	// Example 1: n=3 -> 6 flows; intro: 50! ~ 3.04e64.
	if NonRepetitionCount(3).Int64() != 6 {
		t.Fatal("3! != 6")
	}
	c50 := NonRepetitionCount(50)
	// 50! = 3.0414...e64; check magnitude as the paper states ~3e64.
	low, _ := new(big.Int).SetString("3"+zeros(64), 10)
	high, _ := new(big.Int).SetString("31"+zeros(63), 10)
	if c50.Cmp(low) < 0 || c50.Cmp(high) > 0 {
		t.Fatalf("50! = %v not within [3e64, 3.1e64]", c50)
	}
}

func zeros(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '0'
	}
	return string(b)
}

func TestPaperSpaceCount(t *testing.T) {
	// n=6, m=4, L=24: paper says the space exceeds 1e15 (it is ~3.25e15).
	s := PaperSpace()
	c := s.Count()
	min, _ := new(big.Int).SetString("1"+zeros(15), 10)
	max, _ := new(big.Int).SetString("1"+zeros(16), 10)
	if c.Cmp(min) < 0 || c.Cmp(max) > 0 {
		t.Fatalf("paper space count %v outside (1e15, 1e16)", c)
	}
	// Exact value: 24!/(4!)^6.
	want, _ := new(big.Int).SetString("3246670537110000", 10)
	if c.Cmp(want) != 0 {
		t.Fatalf("count = %v, want %v", c, want)
	}
}

func TestLimitedRepetitionMatchesClosedFormAtFullLength(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for m := 1; m <= 3; m++ {
			s := NewSpace(make([]string, n), m)
			got := CountLimitedRepetition(n, n*m, m)
			want := s.Count()
			if got.Cmp(want) != 0 {
				t.Fatalf("f(%d,%d,%d) = %v, closed form %v", n, n*m, m, got, want)
			}
		}
	}
	// Paper space.
	got := CountLimitedRepetition(6, 24, 4)
	if got.Cmp(PaperSpace().Count()) != 0 {
		t.Fatalf("f(6,24,4) = %v != closed form", got)
	}
}

func TestLimitedRepetitionMatchesBruteForce(t *testing.T) {
	// Brute force count of length-L sequences over n symbols, each used
	// at most m times.
	brute := func(n, L, m int) int64 {
		var count int64
		uses := make([]int, n)
		var rec func(pos int)
		rec = func(pos int) {
			if pos == L {
				count++
				return
			}
			for t := 0; t < n; t++ {
				if uses[t] < m {
					uses[t]++
					rec(pos + 1)
					uses[t]--
				}
			}
		}
		rec(0)
		return count
	}
	for n := 1; n <= 3; n++ {
		for m := 1; m <= 3; m++ {
			for L := 0; L <= n*m; L++ {
				got := CountLimitedRepetition(n, L, m)
				want := brute(n, L, m)
				if got.Int64() != want {
					t.Fatalf("f(%d,%d,%d) = %v, brute force %d", n, L, m, got, want)
				}
			}
		}
	}
}

func TestRemark3Bounds(t *testing.T) {
	// n! < f(n, L, m) < n^L for m >= 2 (at full length L = n*m, n >= 2).
	for n := 2; n <= 5; n++ {
		for m := 2; m <= 3; m++ {
			L := n * m
			f := CountLimitedRepetition(n, L, m)
			nf := factorial(n)
			nL := new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(int64(L)), nil)
			if f.Cmp(nf) <= 0 {
				t.Fatalf("f(%d,%d,%d)=%v <= n!=%v", n, L, m, f, nf)
			}
			if f.Cmp(nL) >= 0 {
				t.Fatalf("f(%d,%d,%d)=%v >= n^L=%v", n, L, m, f, nL)
			}
		}
	}
}

func TestRandomFlowsAreValidAndUnique(t *testing.T) {
	s := PaperSpace()
	rng := rand.New(rand.NewSource(1))
	flows := s.RandomUnique(rng, 500)
	if len(flows) != 500 {
		t.Fatalf("got %d flows", len(flows))
	}
	seen := map[string]bool{}
	for _, f := range flows {
		if err := s.Validate(f); err != nil {
			t.Fatal(err)
		}
		if seen[f.Key()] {
			t.Fatal("duplicate flow")
		}
		seen[f.Key()] = true
	}
}

func TestRandomUniqueSmallSpaceExhausts(t *testing.T) {
	s := NewSpace([]string{"a", "b"}, 2)
	rng := rand.New(rand.NewSource(2))
	flows := s.RandomUnique(rng, 6) // the whole space
	if len(flows) != 6 {
		t.Fatalf("got %d flows", len(flows))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for over-request")
		}
	}()
	s.RandomUnique(rng, 7)
}

func TestOneHotRoundTrip(t *testing.T) {
	s := PaperSpace()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		f := s.Random(rng)
		m := f.OneHot(s)
		if len(m) != 24 || len(m[0]) != 6 {
			t.Fatalf("one-hot shape %dx%d", len(m), len(m[0]))
		}
		back, err := FromOneHot(m)
		if err != nil {
			t.Fatal(err)
		}
		if back.Key() != f.Key() {
			t.Fatal("one-hot round trip failed")
		}
	}
}

func TestOneHotPaperExample3(t *testing.T) {
	// Example 3: S={p0,p1}, F = p0 -> p0 -> p1 -> p1.
	s := NewSpace([]string{"p0", "p1"}, 2)
	f := Flow{Indices: []int{0, 0, 1, 1}}
	m := f.OneHot(s)
	want := [][]uint8{{1, 0}, {1, 0}, {0, 1}, {0, 1}}
	for j := range want {
		for c := range want[j] {
			if m[j][c] != want[j][c] {
				t.Fatalf("M[%d][%d] = %d, want %d", j, c, m[j][c], want[j][c])
			}
		}
	}
}

func TestEncodeReshape(t *testing.T) {
	s := PaperSpace()
	rng := rand.New(rand.NewSource(4))
	f := s.Random(rng)
	enc := f.Encode(s, 12, 12)
	if len(enc) != 144 {
		t.Fatalf("encode length %d", len(enc))
	}
	ones := 0
	for _, v := range enc {
		if v == 1 {
			ones++
		} else if v != 0 {
			t.Fatal("non-binary encoding")
		}
	}
	if ones != 24 {
		t.Fatalf("%d ones, want 24 (one per row of the 24x6 matrix)", ones)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad reshape")
		}
	}()
	f.Encode(s, 10, 10)
}

func TestParseAndString(t *testing.T) {
	s := NewSpace([]string{"balance", "rewrite"}, 2)
	f := Flow{Indices: []int{0, 1, 1, 0}}
	text := f.String(s)
	if text != "balance; rewrite; rewrite; balance" {
		t.Fatalf("string = %q", text)
	}
	back, err := s.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if back.Key() != f.Key() {
		t.Fatal("parse round trip failed")
	}
	if _, err := s.Parse("balance; nosuch"); err == nil {
		t.Fatal("expected unknown transformation error")
	}
	if _, err := s.Parse("balance; rewrite"); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := s.Parse("balance; balance; balance; balance"); err == nil {
		t.Fatal("expected multiplicity error")
	}
}

// Property: random flows always validate and their one-hot encodings
// always round-trip.
func TestQuickRandomFlowInvariants(t *testing.T) {
	s := NewSpace([]string{"a", "b", "c", "d"}, 3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fl := s.Random(rng)
		if s.Validate(fl) != nil {
			return false
		}
		back, err := FromOneHot(fl.OneHot(s))
		return err == nil && back.Key() == fl.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFlowCounting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = CountLimitedRepetition(6, 24, 4)
	}
}

func BenchmarkRandomUnique1000(b *testing.B) {
	s := PaperSpace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		_ = s.RandomUnique(rng, 1000)
	}
}

// TestEncodeIntoMatchesEncode checks the buffer-reusing encoder,
// EncodeInto32, against Encode, including that stale buffer contents
// are fully overwritten.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	s := NewSpace([]string{"a", "b", "c"}, 2)
	rng := rand.New(rand.NewSource(3))
	dst := make([]float32, s.Length()*s.N())
	for i := range dst {
		dst[i] = -7 // stale garbage that must be cleared
	}
	for trial := 0; trial < 5; trial++ {
		f := s.Random(rng)
		want := f.Encode(s, s.Length(), s.N())
		f.EncodeInto32(s, dst)
		for i := range want {
			if float64(dst[i]) != want[i] {
				t.Fatalf("trial %d element %d: EncodeInto32 %v != Encode %v", trial, i, dst[i], want[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeInto32 must panic on a wrong-size buffer")
		}
	}()
	s.Random(rng).EncodeInto32(s, dst[:3])
}
