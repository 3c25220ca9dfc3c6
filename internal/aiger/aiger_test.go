package aiger

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"flowgen/internal/aig"
	"flowgen/internal/circuits"
)

func buildRandom(rng *rand.Rand, nin, nand int) *aig.AIG {
	g := aig.New()
	lits := make([]aig.Lit, 0, nin+nand)
	for i := 0; i < nin; i++ {
		lits = append(lits, g.AddInput("x"))
	}
	for i := 0; i < nand; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < 4 && i < len(lits); i++ {
		g.AddOutput(lits[len(lits)-1-i].NotIf(i%2 == 0), "o")
	}
	g.RecomputeRefs()
	return g
}

func TestASCIIRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := buildRandom(rng, 6, 60)
		var buf bytes.Buffer
		if err := WriteASCII(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumPIs() != g.NumPIs() || g2.NumPOs() != g.NumPOs() {
			t.Fatal("interface changed")
		}
		if !aig.SigEqual(g.SimSignature(3, 4), g2.SimSignature(3, 4)) {
			t.Fatalf("trial %d: ascii round trip changed function", trial)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := buildRandom(rng, 6, 60)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !aig.SigEqual(g.SimSignature(5, 4), g2.SimSignature(5, 4)) {
			t.Fatalf("trial %d: binary round trip changed function", trial)
		}
	}
}

func TestRealDesignBothFormats(t *testing.T) {
	g := circuits.ALU(8)
	for _, write := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return WriteASCII(b, g) },
		func(b *bytes.Buffer) error { return WriteBinary(b, g) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !aig.SigEqual(g.SimSignature(7, 2), g2.SimSignature(7, 2)) {
			t.Fatal("ALU round trip changed function")
		}
	}
}

func TestBinarySmallerThanASCII(t *testing.T) {
	g := circuits.MiniAES(2)
	var a, b bytes.Buffer
	if err := WriteASCII(&a, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&b, g); err != nil {
		t.Fatal(err)
	}
	if b.Len() >= a.Len() {
		t.Fatalf("binary %d bytes >= ascii %d bytes", b.Len(), a.Len())
	}
}

func TestKnownAAGFile(t *testing.T) {
	// The half-adder example from the AIGER spec (combinational part).
	src := `aag 3 2 0 2 1
2
4
6
7
6 2 4
i0 a
i1 b
o0 carry
o1 notcarry
`
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		a, b := m&1 != 0, m&2 != 0
		out := g.EvalUint([]bool{a, b})
		if out[0] != (a && b) || out[1] != !(a && b) {
			t.Fatalf("minterm %d: %v", m, out)
		}
	}
	if g.POName(0) != "carry" {
		t.Fatal("output symbol not read")
	}
}

// malformed holds inputs Read must reject; each used to panic or be
// misread. FuzzAIGER starts from them too.
var malformed = map[string]string{
	"badmagic":      "xyz 1 1 0 1 0\n2\n2\n",
	"latches":       "aag 2 1 1 1 0\n2\n4 2\n2\n",
	"short":         "aag 5 2\n",
	"fwdref":        "aag 2 1 0 1 1\n2\n4\n4 6 2\n",
	"negin":         "aag 0 -1 0 0 0\n",
	"negout":        "aag 0 0 0 -1 0\n",
	"negand":        "aag 0 0 0 0 -5\n",
	"huge":          "aag 4194305 0 0 0 0\n",
	"lhsbeyond":     "aag 1 0 0 0 1\n100 0 0\n",
	"lhsbeyond2":    "aag 2 1 0 1 1\n2\n4\n40 2 2\n",
	"lhsodd":        "aag 2 1 0 1 1\n2\n4\n5 2 2\n",
	"lhsinput":      "aag 2 1 0 1 1\n2\n4\n2 2 2\n",
	"lhsconst":      "aag 2 1 0 1 1\n2\n4\n0 2 2\n",
	"lhstwice":      "aag 3 1 0 1 2\n2\n4\n4 2 2\n4 3 3\n",
	"badstates":     "aag 1 1 0 1 0 1\n2\n2\n2\n",
	"twoperline":    "aag 2 2 0 0 0\n2 4\n",
	"bindeltawrap":  "aig 1 0 0 0 1\n\x05\x00",
	"bindelta1wrap": "aig 2 1 0 0 1\n\x02\x7f",
}

func TestReadErrors(t *testing.T) {
	for name, src := range malformed {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestConstantOutputs(t *testing.T) {
	g := aig.New()
	_ = g.AddInput("a")
	g.AddOutput(aig.ConstFalse, "zero")
	g.AddOutput(aig.ConstTrue, "one")
	var buf bytes.Buffer
	if err := WriteASCII(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := g2.EvalUint([]bool{true})
	if out[0] != false || out[1] != true {
		t.Fatalf("constants: %v", out)
	}
}

// sameGraph reports whether b has a's interface and, by simulation
// signature, its function.
func sameGraph(a, b *aig.AIG) bool {
	return a.NumPIs() == b.NumPIs() && a.NumPOs() == b.NumPOs() &&
		aig.SigEqual(a.SimSignature(9, 2), b.SimSignature(9, 2))
}

// FuzzAIGER feeds arbitrary bytes to Read: it must never panic, and a
// graph it accepts must survive an ASCII and a binary round trip with
// its interface and function intact.
func FuzzAIGER(f *testing.F) {
	for _, src := range malformed {
		f.Add([]byte(src))
	}
	f.Add([]byte("aag 3 2 0 2 1\n2\n4\n6\n7\n6 2 4\ni0 a\ni1 b\no0 carry\no1 notcarry\n"))
	g := buildRandom(rand.New(rand.NewSource(5)), 3, 8)
	for _, write := range []func(io.Writer, *aig.AIG) error{WriteASCII, WriteBinary} {
		var buf bytes.Buffer
		if err := write(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for binary, write := range []func(io.Writer, *aig.AIG) error{WriteASCII, WriteBinary} {
			var buf bytes.Buffer
			if err := write(&buf, g); err != nil {
				t.Fatalf("binary=%v: writing an accepted graph: %v", binary == 1, err)
			}
			g2, err := Read(&buf)
			if err != nil {
				t.Fatalf("binary=%v: re-reading %q: %v", binary == 1, buf.String(), err)
			}
			if !sameGraph(g, g2) {
				t.Fatalf("binary=%v: round trip changed the graph", binary == 1)
			}
		}
	})
}
