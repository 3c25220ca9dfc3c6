package blif

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"flowgen/internal/aig"
	"flowgen/internal/circuits"
)

func TestReadSimpleModel(t *testing.T) {
	src := `
# full adder
.model fa
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
`
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPIs() != 3 || g.NumPOs() != 2 {
		t.Fatalf("interface: %d PIs %d POs", g.NumPIs(), g.NumPOs())
	}
	for m := 0; m < 8; m++ {
		a, b, c := m&1 != 0, m&2 != 0, m&4 != 0
		out := g.EvalUint([]bool{a, b, c})
		n := 0
		for _, v := range []bool{a, b, c} {
			if v {
				n++
			}
		}
		if out[0] != (n%2 == 1) {
			t.Fatalf("sum(%v,%v,%v)", a, b, c)
		}
		if out[1] != (n >= 2) {
			t.Fatalf("cout(%v,%v,%v)", a, b, c)
		}
	}
}

func TestReadOffsetCover(t *testing.T) {
	src := `
.model nand
.inputs a b
.outputs y
.names a b y
11 0
.end
`
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		a, b := m&1 != 0, m&2 != 0
		if got := g.EvalUint([]bool{a, b})[0]; got != !(a && b) {
			t.Fatalf("nand(%v,%v) = %v", a, b, got)
		}
	}
}

func TestReadConstants(t *testing.T) {
	src := `
.model consts
.inputs a
.outputs zero one pass
.names zero
.names one
1
.names a pass
1 1
.end
`
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	out := g.EvalUint([]bool{true})
	if out[0] != false || out[1] != true || out[2] != true {
		t.Fatalf("consts: %v", out)
	}
}

func TestReadOutOfOrderBlocks(t *testing.T) {
	src := `
.model ooo
.inputs a b
.outputs y
.names t y
0 1
.names a b t
11 1
.end
`
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.EvalUint([]bool{true, true})[0]; got != false {
		t.Fatal("out-of-order evaluation wrong")
	}
}

// malformed holds models Read must reject. FuzzBLIF starts from them.
var malformed = map[string]string{
	"latch":     ".model m\n.inputs a\n.outputs q\n.latch a q\n.end",
	"loop":      ".model m\n.inputs a\n.outputs y\n.names x y\n1 1\n.names y x\n1 1\n.end",
	"undriven":  ".model m\n.inputs a\n.outputs y\n.end",
	"dupdrive":  ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end",
	"mixedpol":  ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end",
	"badrow":    ".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end",
	"rowabroad": ".model m\n.inputs a\n.outputs y\n11 1\n.end",
	"dupinput":  ".model m\n.inputs a a\n.outputs a\n.end",
	"redrive":   ".model m\n.inputs a\n.outputs a\n.names a a\n1 1\n.end",
}

func TestReadErrors(t *testing.T) {
	for name, src := range malformed {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// collisions holds models whose signal names clash with the names
// Write used to generate; each used to write a file Read rejected with
// "signal … driven twice".
var collisions = map[string]string{
	"outputisinput":  ".inputs a\n.outputs a\n",
	"inputlikenode":  ".model m\n.inputs n3 b\n.outputs y\n.names n3 b y\n11 1\n.end",
	"inputconst0":    ".model m\n.inputs const0\n.outputs y\n.names y\n.end",
	"outputlikenode": ".model m\n.inputs a b\n.outputs n3 n3\n.names a b n3\n10 1\n.end",
}

// roundTrip writes g and reads it back, failing unless the result has
// g's interface and, by simulation signature, its function.
func roundTrip(t *testing.T, g *aig.AIG) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g, "m"); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-reading written model: %v\n%s", err, buf.String())
	}
	if g2.NumPIs() != g.NumPIs() || g2.NumPOs() != g.NumPOs() {
		t.Fatalf("interface changed: %d/%d PIs, %d/%d POs", g.NumPIs(), g2.NumPIs(), g.NumPOs(), g2.NumPOs())
	}
	if !aig.SigEqual(g.SimSignature(9, 2), g2.SimSignature(9, 2)) {
		t.Fatalf("round trip changed function:\n%s", buf.String())
	}
}

func TestWriteNameCollisions(t *testing.T) {
	for name, src := range collisions {
		t.Run(name, func(t *testing.T) {
			g, err := Read(strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			roundTrip(t, g)
		})
	}
	// Names only another front end produces: duplicate and empty input
	// names, names sanitize maps together, and an output named like an
	// input it does not equal.
	g := aig.New()
	a, b, c, d := g.AddInput("x"), g.AddInput("x"), g.AddInput("x-1"), g.AddInput("")
	g.AddOutput(g.And(a, b.Not()), "x")
	g.AddOutput(c.Not(), "x_1")
	g.AddOutput(d, "_")
	g.AddOutput(aig.ConstTrue, "const0")
	g.RecomputeRefs()
	roundTrip(t, g)
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		g := aig.New()
		lits := []aig.Lit{}
		for i := 0; i < 6; i++ {
			lits = append(lits, g.AddInput("in"+string(rune('a'+i))))
		}
		for i := 0; i < 60; i++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			lits = append(lits, g.And(a, b))
		}
		for i := 0; i < 4; i++ {
			g.AddOutput(lits[len(lits)-1-i].NotIf(i%2 == 0), "out"+string(rune('0'+i)))
		}
		g.RecomputeRefs()

		var buf bytes.Buffer
		if err := Write(&buf, g, "test"); err != nil {
			t.Fatal(err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !aig.SigEqual(g.SimSignature(7, 4), g2.SimSignature(7, 4)) {
			t.Fatalf("trial %d: round trip changed function", trial)
		}
	}
}

func TestRoundTripRealDesign(t *testing.T) {
	g := circuits.ALU(8)
	var buf bytes.Buffer
	if err := Write(&buf, g, "alu8"); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !aig.SigEqual(g.SimSignature(11, 2), g2.SimSignature(11, 2)) {
		t.Fatal("ALU round trip changed function")
	}
	if g2.NumPIs() != g.NumPIs() || g2.NumPOs() != g.NumPOs() {
		t.Fatal("interface changed")
	}
}

func TestWriteConstOutput(t *testing.T) {
	g := aig.New()
	_ = g.AddInput("a")
	g.AddOutput(aig.ConstFalse, "zero")
	g.AddOutput(aig.ConstTrue, "one")
	var buf bytes.Buffer
	if err := Write(&buf, g, "c"); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := g2.EvalUint([]bool{false})
	if out[0] != false || out[1] != true {
		t.Fatalf("const round trip: %v", out)
	}
}

// FuzzBLIF feeds arbitrary text to Read: it must never panic, and a
// model it accepts must survive a Write/Read round trip with its
// interface and function intact.
func FuzzBLIF(f *testing.F) {
	for _, m := range []map[string]string{malformed, collisions} {
		for _, src := range m {
			f.Add(src)
		}
	}
	f.Add(".model fa\n.inputs a b cin\n.outputs sum cout\n.names a b cin sum\n100 1\n010 1\n001 1\n111 1\n" +
		".names a b cin cout\n11- 1\n1-1 1\n-11 1\n.end\n")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		roundTrip(t, g)
	})
}
