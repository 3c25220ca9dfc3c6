package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// f64Specials are the operands where a vector lane could part ways with
// the scalar statement if it rounded or fused differently: signed
// zeros, subnormals, overflow, infinities and NaN.
var f64Specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
	math.MaxFloat64, -1e308, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1,
}

// sameF64 is bit equality, with any two NaNs equal: a NaN's payload
// depends on operand order, which IEEE leaves open.
func sameF64(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// Reference loops for Gemm, GemmTA and GemmStrided: the plain scalar
// statements, with the same zero skips and the same pairing.
func refGemm(m, n, k int, a, b, c []float64) {
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		for l, av := range a[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			for j, bv := range b[l*n : (l+1)*n] {
				ci[j] += av * bv
			}
		}
	}
}

func refGemmTA(m, n, k int, a, b, c []float64) {
	for l := 0; l < k; l++ {
		bl := b[l*n : (l+1)*n]
		for i, av := range a[l*m : (l+1)*m] {
			if av == 0 {
				continue
			}
			ci := c[i*n : (i+1)*n]
			for j, bv := range bl {
				ci[j] += av * bv
			}
		}
	}
}

func refGemmStrided(m, n, k int, a, b []float64, bStride int, c []float64) {
	for i := 0; i < m; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		l := 0
		for ; l+1 < k; l += 2 {
			av0, av1 := ai[l], ai[l+1]
			b0 := b[l*bStride : l*bStride+n]
			b1 := b[(l+1)*bStride : (l+1)*bStride+n]
			for j := range ci {
				ci[j] += av0*b0[j] + av1*b1[j]
			}
		}
		if l < k {
			for j, bv := range b[l*bStride : l*bStride+n] {
				ci[j] += ai[l] * bv
			}
		}
	}
}

// FuzzF64KernelsAgree requires every float64 training kernel on the
// process tier to equal its scalar loop bit for bit (any two NaNs
// equal): axpy64, axpyPair64 and dotT64 directly, at all four row
// lengths n…n+3 so every residue mod 4 meets the vector tail, and
// through the GEMMs that call them — Gemm, GemmTA and GemmStrided
// against their reference loops, GemmTATB against GemmTB on the same
// operands laid out as GemmTB reads them. special/256 of the operands come from
// f64Specials, every third A element is a (signed) zero the GEMMs'
// skips see, and B rows sit extra elements apart. On a host without
// AVX2 both sides run the scalar loops; the GOARCH=386 job covers that
// tier end to end. The seed corpus under testdata/fuzz names the shapes
// it pins: FastArch's two weight-gradient blocks, lane groups with an
// odd output past them, row tails of one and two, k = 1, wide strides,
// and operands drawn from the specials alone.
func FuzzF64KernelsAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, m, n, k int, seed int64, extra int, special uint8) {
		if m < 1 || n < 1 || k < 1 || m > 32 || n > 160 || k > 160 || extra < 0 || extra > 600 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		draw := func() float64 {
			if rng.Intn(256) < int(special) {
				return f64Specials[rng.Intn(len(f64Specials))]
			}
			return rng.NormFloat64()
		}
		fill := func(size int) []float64 {
			s := make([]float64, size)
			for i := range s {
				s[i] = draw()
			}
			return s
		}
		sparse := func(size int) []float64 {
			s := fill(size)
			for i := 0; i < len(s); i += 3 {
				s[i] = f64Specials[i/3%2] // +0, then −0
			}
			return s
		}
		check := func(what string, got, want []float64) {
			t.Helper()
			for i := range want {
				if !sameF64(got[i], want[i]) {
					t.Fatalf("%s m=%d n=%d k=%d extra=%d [%d]: tier %v (%#x) != scalar %v (%#x)",
						what, m, n, k, extra, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}

		// The row updates, directly, at every residue mod 4.
		for ln := n; ln < n+4; ln++ {
			b0, b1, c := fill(ln), fill(ln), fill(ln)
			a0, a1 := draw(), draw()
			got, want := append([]float64(nil), c...), append([]float64(nil), c...)
			axpy64(got, b0, a0)
			axpy64Scalar(want, b0, a0)
			check("axpy64", got, want)
			got, want = append(got[:0], c...), append(want[:0], c...)
			axpyPair64(got, b0, b1, a0, a1)
			axpyPair64Scalar(want, b0, b1, a0, a1)
			check("axpyPair64", got, want)
		}

		// The dot products, directly and through GemmTATB, against GemmTB
		// on A transposed and B's rows packed.
		bStride := k + extra
		aT := sparse(k * m)
		bs := fill((n-1)*bStride + k)
		c := fill(m * n)
		got, want := append([]float64(nil), c...), append([]float64(nil), c...)
		dotT64(m, n, k, aT, bs, bStride, got)
		dotT64Scalar(0, m, n, k, aT, bs, bStride, want)
		check("dotT64", got, want)
		a := make([]float64, m*k)
		for l := 0; l < k; l++ {
			for i := 0; i < m; i++ {
				a[i*k+l] = aT[l*m+i]
			}
		}
		packed := make([]float64, n*k)
		for j := 0; j < n; j++ {
			copy(packed[j*k:(j+1)*k], bs[j*bStride:j*bStride+k])
		}
		got = append(got[:0], c...)
		GemmTATB(m, n, k, aT, bs, bStride, got)
		want = append(want[:0], c...)
		GemmTB(m, n, k, a, packed, want)
		check("GemmTATB vs GemmTB", got, want)

		// The GEMMs, against their reference loops.
		b := fill(k * n)
		got = append(got[:0], c...)
		Gemm(m, n, k, a, b, got)
		want = append(want[:0], c...)
		refGemm(m, n, k, a, b, want)
		check("Gemm", got, want)
		got = append(got[:0], c...)
		GemmTA(m, n, k, aT, b, got)
		want = append(want[:0], c...)
		refGemmTA(m, n, k, aT, b, want)
		check("GemmTA", got, want)
		wide := fill((k-1)*(n+extra) + n)
		got = append(got[:0], c...)
		GemmStrided(m, n, k, a, wide, n+extra, got)
		want = append(want[:0], c...)
		refGemmStrided(m, n, k, a, wide, n+extra, want)
		check("GemmStrided", got, want)
	})
}
