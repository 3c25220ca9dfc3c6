// Command cec proves or refutes combinational equivalence of two
// netlists (BLIF or AIGER, by extension), the counterpart of ABC's cec:
// it simulates their miter, sweeps it with fraig and SAT-solves the
// outputs the sweep leaves (internal/cec).
//
//	cec golden.blif optimized.aig
//	cec -conflicts 100000 a.blif b.blif
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"flowgen/internal/aig"
	"flowgen/internal/aiger"
	"flowgen/internal/blif"
	"flowgen/internal/cec"
)

func main() {
	conflicts := flag.Int64("conflicts", 0, "SAT conflict budget for all the outputs the sweep leaves, not per output (0 = unlimited)")
	simWords := flag.Int("sim", 4, "64-bit random simulation words for the miter and the sweep")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cec [-conflicts N] [-sim W] <a.blif|a.aag|a.aig> <b.blif|b.aag|b.aig>")
		os.Exit(2)
	}
	a := load(flag.Arg(0))
	b := load(flag.Arg(1))
	fmt.Printf("a: %v\nb: %v\n", a.Stats(), b.Stats())

	rep, err := cec.Check(a, b, cec.Options{MaxConflicts: *conflicts, SimWords: *simWords})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cec:", err)
		os.Exit(1)
	}
	fmt.Printf("verdict: %v (%d SAT conflicts)\n", rep.Verdict, rep.SATConflicts)
	switch rep.Verdict {
	case cec.NotEquivalent:
		fmt.Printf("output %d differs; counterexample:\n", rep.FailingOutput)
		for i, v := range rep.Counterexample {
			bit := 0
			if v {
				bit = 1
			}
			fmt.Printf("  %s = %d\n", a.PIName(i), bit)
		}
		os.Exit(1)
	case cec.Undecided:
		os.Exit(3)
	}
}

func load(path string) *aig.AIG {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cec:", err)
		os.Exit(1)
	}
	defer f.Close()
	var g *aig.AIG
	switch strings.ToLower(filepath.Ext(path)) {
	case ".aag", ".aig":
		g, err = aiger.Read(f)
	default:
		g, err = blif.Read(f)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cec: %s: %v\n", path, err)
		os.Exit(1)
	}
	return g
}
