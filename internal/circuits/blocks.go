// Package circuits generates the benchmark designs of the paper — the
// 64-bit Montgomery multiplier, the 128-bit AES core and the 64-bit ALU
// (all parameterizable) — directly as AIGs, replacing the OpenCores HDL
// inputs. Every generator has a pure-software reference model and the
// tests verify the generated logic against it by simulation.
package circuits

import "flowgen/internal/aig"

// Word is a little-endian vector of literals (bit 0 first).
type Word []aig.Lit

// ConstWord returns an n-bit constant word with the given value.
func ConstWord(n int, v uint64) Word {
	w := make(Word, n)
	for i := range w {
		if v&(1<<uint(i)) != 0 {
			w[i] = aig.ConstTrue
		} else {
			w[i] = aig.ConstFalse
		}
	}
	return w
}

// InputWord declares n named primary inputs ("name[i]").
func InputWord(g *aig.AIG, name string, n int) Word {
	w := make(Word, n)
	for i := range w {
		w[i] = g.AddInput(wireName(name, i))
	}
	return w
}

func wireName(name string, i int) string {
	return name + "[" + itoa(i) + "]"
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// OutputWord declares the word's bits as primary outputs ("name[i]").
func OutputWord(g *aig.AIG, w Word, name string) {
	for i, l := range w {
		g.AddOutput(l, wireName(name, i))
	}
}

// FullAdder returns (sum, carry) of three bits.
func FullAdder(g *aig.AIG, a, b, c aig.Lit) (aig.Lit, aig.Lit) {
	s := g.Xor(g.Xor(a, b), c)
	co := g.Maj(a, b, c)
	return s, co
}

// Adder returns a+b (and the carry out) over max(len(a),len(b)) bits
// using a ripple-carry structure; operands are zero-extended.
func Adder(g *aig.AIG, a, b Word, cin aig.Lit) (Word, aig.Lit) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	sum := make(Word, n)
	c := cin
	for i := 0; i < n; i++ {
		ai, bi := aig.ConstFalse, aig.ConstFalse
		if i < len(a) {
			ai = a[i]
		}
		if i < len(b) {
			bi = b[i]
		}
		sum[i], c = FullAdder(g, ai, bi, c)
	}
	return sum, c
}

// Sub returns a-b (two's complement) and the borrow-free flag (1 when
// a >= b).
func Sub(g *aig.AIG, a, b Word) (Word, aig.Lit) {
	nb := make(Word, len(b))
	for i := range b {
		nb[i] = b[i].Not()
	}
	diff, c := Adder(g, a, nb, aig.ConstTrue)
	return diff, c
}

// GateWord ANDs every bit of w with the enable literal.
func GateWord(g *aig.AIG, w Word, en aig.Lit) Word {
	out := make(Word, len(w))
	for i, l := range w {
		out[i] = g.And(l, en)
	}
	return out
}

// MuxWord returns s ? a : b, bitwise.
func MuxWord(g *aig.AIG, s aig.Lit, a, b Word) Word {
	if len(a) != len(b) {
		panic("circuits: MuxWord width mismatch")
	}
	out := make(Word, len(a))
	for i := range a {
		out[i] = g.Mux(s, a[i], b[i])
	}
	return out
}

// XorWord returns a XOR b, bitwise.
func XorWord(g *aig.AIG, a, b Word) Word {
	if len(a) != len(b) {
		panic("circuits: XorWord width mismatch")
	}
	out := make(Word, len(a))
	for i := range a {
		out[i] = g.Xor(a[i], b[i])
	}
	return out
}

// AndWord / OrWord are bitwise operators.
func AndWord(g *aig.AIG, a, b Word) Word {
	out := make(Word, len(a))
	for i := range a {
		out[i] = g.And(a[i], b[i])
	}
	return out
}

// OrWord returns a OR b, bitwise.
func OrWord(g *aig.AIG, a, b Word) Word {
	out := make(Word, len(a))
	for i := range a {
		out[i] = g.Or(a[i], b[i])
	}
	return out
}

// ShiftLeftVar returns a << sh for a variable shift amount, as a barrel
// shifter over the bits of sh.
func ShiftLeftVar(g *aig.AIG, a Word, sh Word) Word {
	cur := append(Word(nil), a...)
	for s, sl := range sh {
		k := 1 << uint(s)
		if k >= len(cur) {
			// Shifting by >= width zeroes everything when the bit is set.
			cur = MuxWord(g, sl, ConstWord(len(cur), 0), cur)
			continue
		}
		shifted := make(Word, len(cur))
		for i := range shifted {
			if i >= k {
				shifted[i] = cur[i-k]
			} else {
				shifted[i] = aig.ConstFalse
			}
		}
		cur = MuxWord(g, sl, shifted, cur)
	}
	return cur
}

// ShiftRightVar returns a >> sh (logical, or arithmetic when arith).
func ShiftRightVar(g *aig.AIG, a Word, sh Word, arith bool) Word {
	cur := append(Word(nil), a...)
	fill := aig.ConstFalse
	if arith {
		fill = a[len(a)-1]
	}
	for s, sl := range sh {
		k := 1 << uint(s)
		shifted := make(Word, len(cur))
		for i := range shifted {
			if i+k < len(cur) {
				shifted[i] = cur[i+k]
			} else {
				shifted[i] = fill
			}
		}
		cur = MuxWord(g, sl, shifted, cur)
	}
	return cur
}

// U64ToBits converts the low n bits of v to a bool slice (LSB first).
func U64ToBits(v uint64, n int) []bool {
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = v&(1<<uint(i)) != 0
	}
	return out
}

// BitsToU64 packs up to 64 bools (LSB first) into a uint64.
func BitsToU64(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b && i < 64 {
			v |= 1 << uint(i)
		}
	}
	return v
}
