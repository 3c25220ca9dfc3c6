// Package blif reads and writes combinational netlists in the Berkeley
// Logic Interchange Format (BLIF), the interchange format ABC consumes.
// It provides the design-entry path of the framework (the paper's "HDL
// input" box): designs generated by internal/circuits can be exported,
// hand-written BLIF can be imported, and round-tripping is verified by
// simulation in the tests.
//
// The supported subset is combinational: .model, .inputs, .outputs,
// .names (with multi-line cover rows), .end. Latches are rejected.
package blif

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"flowgen/internal/aig"
)

// Write serializes the graph as a BLIF model. Every AND node becomes a
// two-input .names cover; complemented edges become complemented cover
// literals, and each output is a buffer or inverter cover of its source.
// Every signal gets a distinct name: inputs keep their sanitized names
// and outputs theirs, each made unique with a _<k> suffix when taken;
// internal nodes (n<id>, const0) avoid all of them. An output that is an
// input of the same name needs no cover.
func Write(w io.Writer, g *aig.AIG, model string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", model)

	used := make(map[string]bool)
	unique := func(base string) string {
		n := base
		for k := 1; used[n]; k++ {
			n = fmt.Sprintf("%s_%d", base, k)
		}
		used[n] = true
		return n
	}
	name := make(map[int]string)
	fmt.Fprint(bw, ".inputs")
	for i := 0; i < g.NumPIs(); i++ {
		n := unique(sanitize(g.PIName(i)))
		name[g.PI(i).Node()] = n
		fmt.Fprintf(bw, " %s", n)
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".outputs")
	poNames := make([]string, g.NumPOs())
	for i := range poNames {
		n, l := sanitize(g.POName(i)), g.PO(i)
		if l.IsNeg() || name[l.Node()] != n { // name holds only inputs so far
			n = unique(n)
		}
		poNames[i] = n
		fmt.Fprintf(bw, " %s", n)
	}
	fmt.Fprintln(bw)

	// Constant-zero source (only if referenced).
	constUsed := false
	g.ForEachLiveAnd(func(id int) {
		if g.Fanin0(id).Node() == 0 || g.Fanin1(id).Node() == 0 {
			constUsed = true
		}
	})
	for i := 0; i < g.NumPOs(); i++ {
		if g.PO(i).Node() == 0 {
			constUsed = true
		}
	}
	if constUsed {
		name[0] = unique("const0")
		fmt.Fprintf(bw, ".names %s\n", name[0]) // empty cover = constant 0
	}

	lit := func(l aig.Lit) (string, bool) { return name[l.Node()], l.IsNeg() }
	g.ForEachLiveAnd(func(id int) {
		n := unique(fmt.Sprintf("n%d", id))
		name[id] = n
		a, an := lit(g.Fanin0(id))
		b, bn := lit(g.Fanin1(id))
		fmt.Fprintf(bw, ".names %s %s %s\n", a, b, n)
		row := [2]byte{'1', '1'}
		if an {
			row[0] = '0'
		}
		if bn {
			row[1] = '0'
		}
		fmt.Fprintf(bw, "%c%c 1\n", row[0], row[1])
	})

	for i := 0; i < g.NumPOs(); i++ {
		l := g.PO(i)
		src := name[l.Node()]
		switch {
		case src == poNames[i]:
			// The output is the input of the same name.
		case l.IsNeg():
			fmt.Fprintf(bw, ".names %s %s\n0 1\n", src, poNames[i])
		default:
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", src, poNames[i])
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

func sanitize(s string) string {
	if s == "" {
		return "_"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '[', r == ']', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// node is a parsed .names block.
type names struct {
	inputs []string
	output string
	rows   []string // each row: input pattern + ' ' + output value
}

// Read parses a combinational BLIF model into an AIG. Each .names cover
// is converted to AND/OR logic over its input literals.
func Read(r io.Reader) (*aig.AIG, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)

	var logical []string
	pending := ""
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, "\\") {
			pending += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		logical = append(logical, pending+line)
		pending = ""
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	var inputs, outputs []string
	var blocks []names
	var cur *names
	flush := func() {
		if cur != nil {
			blocks = append(blocks, *cur)
			cur = nil
		}
	}
	for _, line := range logical {
		f := strings.Fields(line)
		switch f[0] {
		case ".model":
			// name ignored
		case ".inputs":
			flush()
			inputs = append(inputs, f[1:]...)
		case ".outputs":
			flush()
			outputs = append(outputs, f[1:]...)
		case ".names":
			flush()
			if len(f) < 2 {
				return nil, fmt.Errorf("blif: .names with no signals")
			}
			cur = &names{inputs: f[1 : len(f)-1], output: f[len(f)-1]}
		case ".latch":
			return nil, fmt.Errorf("blif: sequential models are not supported")
		case ".end":
			flush()
		default:
			if strings.HasPrefix(f[0], ".") {
				return nil, fmt.Errorf("blif: unsupported directive %s", f[0])
			}
			if cur == nil {
				return nil, fmt.Errorf("blif: cover row outside .names")
			}
			cur.rows = append(cur.rows, line)
		}
	}
	flush()

	g := aig.New()
	sig := make(map[string]aig.Lit)
	for _, in := range inputs {
		if _, dup := sig[in]; dup {
			return nil, fmt.Errorf("blif: duplicate input %s", in)
		}
		sig[in] = g.AddInput(in)
	}

	// Topologically instantiate .names blocks (they may be out of order).
	remaining := append([]names(nil), blocks...)
	for len(remaining) > 0 {
		progress := false
		var next []names
		for _, b := range remaining {
			ready := true
			for _, in := range b.inputs {
				if _, ok := sig[in]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, b)
				continue
			}
			l, err := buildCover(g, b, sig)
			if err != nil {
				return nil, err
			}
			if _, dup := sig[b.output]; dup {
				return nil, fmt.Errorf("blif: signal %s driven twice", b.output)
			}
			sig[b.output] = l
			progress = true
		}
		if !progress {
			var missing []string
			for _, b := range next {
				missing = append(missing, b.output)
			}
			sort.Strings(missing)
			return nil, fmt.Errorf("blif: combinational loop or undriven signals: %v", missing)
		}
		remaining = next
	}

	for _, out := range outputs {
		l, ok := sig[out]
		if !ok {
			return nil, fmt.Errorf("blif: output %s undriven", out)
		}
		g.AddOutput(l, out)
	}
	g.RecomputeRefs()
	g.RecomputeLevels()
	return g, nil
}

// buildCover converts one .names cover to AIG logic.
func buildCover(g *aig.AIG, b names, sig map[string]aig.Lit) (aig.Lit, error) {
	if len(b.inputs) == 0 {
		// Constant: empty cover = 0; a single "1" row = 1.
		for _, row := range b.rows {
			if strings.TrimSpace(row) == "1" {
				return aig.ConstTrue, nil
			}
		}
		return aig.ConstFalse, nil
	}
	// Determine output polarity: all rows must share the same output value
	// (standard single-output cover semantics: ON-set or OFF-set list).
	onSet := true
	sum := aig.ConstFalse
	for ri, row := range b.rows {
		f := strings.Fields(row)
		if len(f) != 2 || len(f[0]) != len(b.inputs) {
			return 0, fmt.Errorf("blif: malformed cover row %q for %s", row, b.output)
		}
		val := f[1]
		if ri == 0 {
			onSet = val == "1"
		} else if (val == "1") != onSet {
			return 0, fmt.Errorf("blif: mixed cover polarities for %s", b.output)
		}
		term := aig.ConstTrue
		for i, ch := range f[0] {
			in := sig[b.inputs[i]]
			switch ch {
			case '1':
				term = g.And(term, in)
			case '0':
				term = g.And(term, in.Not())
			case '-':
			default:
				return 0, fmt.Errorf("blif: bad cover char %q", ch)
			}
		}
		sum = g.Or(sum, term)
	}
	if !onSet {
		return sum.Not(), nil
	}
	return sum, nil
}
