// Package aiger reads and writes the AIGER format (Biere, 2007), the
// standard interchange format for and-inverter graphs used by ABC and
// the hardware model-checking community. Both the ASCII ("aag") and
// binary ("aig") variants are supported for combinational circuits,
// giving this framework a second design-entry path next to BLIF and an
// export path any external AIG tool can consume.
package aiger

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"flowgen/internal/aig"
)

// WriteASCII serializes the graph in the ASCII aag format. Inputs and
// outputs carry their names as symbol-table entries.
func WriteASCII(w io.Writer, g *aig.AIG) error {
	bw := bufio.NewWriter(w)
	ands := g.LiveAnds()

	// AIGER variable indices: 0 = const, 1..I = inputs, then ANDs.
	varOf := make(map[int]uint32, len(ands)+g.NumPIs()+1)
	varOf[0] = 0
	for i := 0; i < g.NumPIs(); i++ {
		varOf[g.PI(i).Node()] = uint32(i + 1)
	}
	for i, id := range ands {
		varOf[id] = uint32(g.NumPIs() + 1 + i)
	}
	lit := func(l aig.Lit) uint32 {
		v, ok := varOf[l.Node()]
		if !ok {
			panic(fmt.Sprintf("aiger: node %d has no variable", l.Node()))
		}
		out := v * 2
		if l.IsNeg() {
			out |= 1
		}
		return out
	}

	maxVar := g.NumPIs() + len(ands)
	fmt.Fprintf(bw, "aag %d %d 0 %d %d\n", maxVar, g.NumPIs(), g.NumPOs(), len(ands))
	for i := 0; i < g.NumPIs(); i++ {
		fmt.Fprintf(bw, "%d\n", (i+1)*2)
	}
	for i := 0; i < g.NumPOs(); i++ {
		fmt.Fprintf(bw, "%d\n", lit(g.PO(i)))
	}
	for _, id := range ands {
		fmt.Fprintf(bw, "%d %d %d\n", varOf[id]*2, lit(g.Fanin0(id)), lit(g.Fanin1(id)))
	}
	for i := 0; i < g.NumPIs(); i++ {
		fmt.Fprintf(bw, "i%d %s\n", i, g.PIName(i))
	}
	for i := 0; i < g.NumPOs(); i++ {
		fmt.Fprintf(bw, "o%d %s\n", i, g.POName(i))
	}
	fmt.Fprintln(bw, "c")
	fmt.Fprintln(bw, "generated by flowgen")
	return bw.Flush()
}

// WriteBinary serializes the graph in the binary aig format: AND fanins
// are delta-encoded as LEB128-style variable-length integers, and the
// format requires fanin literals to be smaller than the node literal
// (guaranteed here because LiveAnds is topological).
func WriteBinary(w io.Writer, g *aig.AIG) error {
	bw := bufio.NewWriter(w)
	ands := g.LiveAnds()
	varOf := make(map[int]uint32, len(ands)+g.NumPIs()+1)
	varOf[0] = 0
	for i := 0; i < g.NumPIs(); i++ {
		varOf[g.PI(i).Node()] = uint32(i + 1)
	}
	for i, id := range ands {
		varOf[id] = uint32(g.NumPIs() + 1 + i)
	}
	lit := func(l aig.Lit) uint32 {
		out := varOf[l.Node()] * 2
		if l.IsNeg() {
			out |= 1
		}
		return out
	}
	maxVar := g.NumPIs() + len(ands)
	fmt.Fprintf(bw, "aig %d %d 0 %d %d\n", maxVar, g.NumPIs(), g.NumPOs(), len(ands))
	for i := 0; i < g.NumPOs(); i++ {
		fmt.Fprintf(bw, "%d\n", lit(g.PO(i)))
	}
	for _, id := range ands {
		lhs := varOf[id] * 2
		r0, r1 := lit(g.Fanin0(id)), lit(g.Fanin1(id))
		if r0 < r1 {
			r0, r1 = r1, r0 // binary AIGER wants rhs0 >= rhs1
		}
		if r0 >= lhs {
			return fmt.Errorf("aiger: non-topological AND %d", id)
		}
		writeDelta(bw, lhs-r0)
		writeDelta(bw, r0-r1)
	}
	for i := 0; i < g.NumPIs(); i++ {
		fmt.Fprintf(bw, "i%d %s\n", i, g.PIName(i))
	}
	for i := 0; i < g.NumPOs(); i++ {
		fmt.Fprintf(bw, "o%d %s\n", i, g.POName(i))
	}
	return bw.Flush()
}

func writeDelta(bw *bufio.Writer, d uint32) {
	for d >= 0x80 {
		bw.WriteByte(byte(d&0x7F) | 0x80)
		d >>= 7
	}
	bw.WriteByte(byte(d))
}

// MaxVars bounds every count an AIGER header may declare (variables,
// inputs, outputs, ANDs), so a hostile header is rejected before
// anything is allocated. 1<<22 variables is about 21× aes128, the
// largest built-in design (~192k ANDs).
const MaxVars = 1 << 22

// Read parses either AIGER variant (dispatching on the header word).
func Read(r io.Reader) (*aig.AIG, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("aiger: reading header: %w", err)
	}
	f := strings.Fields(header)
	if len(f) < 6 {
		return nil, fmt.Errorf("aiger: short header %q", header)
	}
	nums := make([]int, len(f)-1)
	for i := range nums {
		nums[i], err = strconv.Atoi(f[i+1])
		if err != nil {
			return nil, fmt.Errorf("aiger: bad header field %q", f[i+1])
		}
		if nums[i] < 0 || nums[i] > MaxVars {
			return nil, fmt.Errorf("aiger: header count %d outside [0, %d]", nums[i], MaxVars)
		}
	}
	maxVar, numIn, numLatch, numOut, numAnd := nums[0], nums[1], nums[2], nums[3], nums[4]
	if numLatch != 0 {
		return nil, fmt.Errorf("aiger: sequential models are not supported")
	}
	for _, n := range nums[5:] {
		if n != 0 {
			return nil, fmt.Errorf("aiger: bad-state, constraint, justice and fairness sections are not supported")
		}
	}
	if maxVar < numIn+numAnd {
		return nil, fmt.Errorf("aiger: inconsistent header")
	}
	switch f[0] {
	case "aag":
		return readASCII(br, maxVar, numIn, numOut, numAnd)
	case "aig":
		return readBinary(br, maxVar, numIn, numOut, numAnd)
	}
	return nil, fmt.Errorf("aiger: unknown magic %q", f[0])
}

// undefined marks an AIGER variable no input or AND has defined yet.
const undefined = aig.Lit(^uint32(0))

type parseState struct {
	g    *aig.AIG
	lits []aig.Lit // AIGER variable -> graph literal (positive)
}

func (ps *parseState) lit(aigerLit uint32) (aig.Lit, error) {
	v := aigerLit / 2
	if int(v) >= len(ps.lits) {
		return 0, fmt.Errorf("aiger: literal %d out of range", aigerLit)
	}
	l := ps.lits[v]
	if l == undefined {
		return 0, fmt.Errorf("aiger: literal %d used before defined", aigerLit)
	}
	return l.NotIf(aigerLit&1 == 1), nil
}

// and defines AIGER variable lhs/2 as the conjunction of r0 and r1.
func (ps *parseState) and(lhs, r0, r1 uint32) error {
	f0, err := ps.lit(r0)
	if err != nil {
		return err
	}
	f1, err := ps.lit(r1)
	if err != nil {
		return err
	}
	ps.lits[lhs/2] = ps.g.And(f0, f1)
	return nil
}

func newParseState(maxVar, numIn int) *parseState {
	ps := &parseState{g: aig.New(), lits: make([]aig.Lit, 1+maxVar)}
	for i := range ps.lits {
		ps.lits[i] = undefined
	}
	ps.lits[0] = aig.ConstFalse
	for i := 0; i < numIn; i++ {
		ps.lits[i+1] = ps.g.AddInput(fmt.Sprintf("i%d", i))
	}
	return ps
}

// readLine reads one body line holding exactly len(dst) literals.
func readLine(br *bufio.Reader, dst []uint32) error {
	line, err := br.ReadString('\n')
	if err != nil && line == "" {
		return fmt.Errorf("aiger: truncated body: %w", err)
	}
	f := strings.Fields(line)
	if len(f) != len(dst) {
		return fmt.Errorf("aiger: want %d literals on line %q", len(dst), line)
	}
	for i, tok := range f {
		v, err := strconv.ParseUint(tok, 10, 32)
		if err != nil {
			return fmt.Errorf("aiger: bad literal %q", tok)
		}
		dst[i] = uint32(v)
	}
	return nil
}

func readASCII(br *bufio.Reader, maxVar, numIn, numOut, numAnd int) (*aig.AIG, error) {
	ps := newParseState(maxVar, numIn)
	var in [1]uint32
	for i := 0; i < numIn; i++ {
		if err := readLine(br, in[:]); err != nil {
			return nil, err
		}
		if in[0] != uint32(2*(i+1)) {
			return nil, fmt.Errorf("aiger: unexpected input literal %d", in[0])
		}
	}
	outs := make([]uint32, numOut)
	for i := range outs {
		if err := readLine(br, outs[i:i+1]); err != nil {
			return nil, err
		}
	}
	var and [3]uint32
	for i := 0; i < numAnd; i++ {
		if err := readLine(br, and[:]); err != nil {
			return nil, err
		}
		lhs, v := and[0], int(and[0]/2)
		switch {
		case lhs%2 != 0:
			return nil, fmt.Errorf("aiger: AND lhs %d is negated", lhs)
		case v <= numIn:
			return nil, fmt.Errorf("aiger: AND lhs %d redefines the constant or an input", lhs)
		case v > maxVar:
			return nil, fmt.Errorf("aiger: AND lhs %d exceeds maximum variable %d", lhs, maxVar)
		case ps.lits[v] != undefined:
			return nil, fmt.Errorf("aiger: AND lhs %d defined twice", lhs)
		}
		if err := ps.and(lhs, and[1], and[2]); err != nil {
			return nil, err
		}
	}
	return finish(ps, br, outs)
}

func readBinary(br *bufio.Reader, maxVar, numIn, numOut, numAnd int) (*aig.AIG, error) {
	ps := newParseState(maxVar, numIn)
	outs := make([]uint32, numOut)
	for i := range outs {
		if err := readLine(br, outs[i:i+1]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < numAnd; i++ {
		lhs := uint32(2 * (1 + numIn + i))
		d0, err := readDelta(br)
		if err != nil {
			return nil, err
		}
		d1, err := readDelta(br)
		if err != nil {
			return nil, err
		}
		if d0 > lhs || d1 > lhs-d0 {
			return nil, fmt.Errorf("aiger: AND %d has a fanin delta below literal 0", lhs)
		}
		if err := ps.and(lhs, lhs-d0, lhs-d0-d1); err != nil {
			return nil, err
		}
	}
	return finish(ps, br, outs)
}

func readDelta(br *bufio.Reader) (uint32, error) {
	var out uint32
	shift := uint(0)
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("aiger: truncated delta: %w", err)
		}
		out |= uint32(b&0x7F) << shift
		if b&0x80 == 0 {
			return out, nil
		}
		shift += 7
		if shift > 28 {
			return 0, fmt.Errorf("aiger: delta overflow")
		}
	}
}

// finish reads the optional symbol table and declares the outputs.
func finish(ps *parseState, br *bufio.Reader, outs []uint32) (*aig.AIG, error) {
	inNames := map[int]string{}
	outNames := map[int]string{}
	for {
		line, err := br.ReadString('\n')
		if len(line) == 0 && err != nil {
			break
		}
		line = strings.TrimSpace(line)
		if line == "c" {
			break // comment section: ignore the rest
		}
		if line == "" {
			continue
		}
		kind := line[0]
		rest := strings.SplitN(line[1:], " ", 2)
		if len(rest) != 2 {
			continue
		}
		idx, err := strconv.Atoi(rest[0])
		if err != nil {
			continue
		}
		switch kind {
		case 'i':
			inNames[idx] = rest[1]
		case 'o':
			outNames[idx] = rest[1]
		}
	}
	_ = inNames // input rename is cosmetic; AddInput already named them i<k>
	for i, o := range outs {
		l, err := ps.lit(o)
		if err != nil {
			return nil, err
		}
		name, ok := outNames[i]
		if !ok {
			name = fmt.Sprintf("o%d", i)
		}
		ps.g.AddOutput(l, name)
	}
	ps.g.RecomputeRefs()
	ps.g.RecomputeLevels()
	return ps.g, nil
}
