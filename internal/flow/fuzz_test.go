package flow

import (
	"math/rand"
	"strings"
	"testing"
)

// FuzzFlowParse feeds arbitrary text to Space.Parse, the trust boundary
// for every flow string a client sends (/v1/predict, /v1/recommend,
// /v1/label). The contract:
//
//   - Parse never panics, whatever the input;
//   - a flow it accepts is valid for the space (Validate returns nil);
//   - rendering an accepted flow and parsing it again yields the same
//     flow (identical Key), so stored, cached and served forms agree.
func FuzzFlowParse(f *testing.F) {
	space := PaperSpace()
	valid := space.Random(rand.New(rand.NewSource(1))).String(space)
	f.Add(valid)
	f.Add("")
	f.Add(";;;")
	f.Add(strings.Replace(valid, "balance", "resub", 1))                     // unknown name
	f.Add(valid[:strings.LastIndex(valid, ";")])                             // one transformation short
	f.Add(valid + "; balance")                                               // one too many
	f.Add(" \t" + strings.ReplaceAll(valid, "; ", " ;;\n ;  ") + " ;; \r\n") // doubled separators, whitespace

	f.Fuzz(func(t *testing.T, text string) {
		fl, err := space.Parse(text)
		if err != nil {
			return
		}
		if err := space.Validate(fl); err != nil {
			t.Fatalf("Parse(%q) accepted an invalid flow: %v", text, err)
		}
		back, err := space.Parse(fl.String(space))
		if err != nil {
			t.Fatalf("re-parsing the rendering of an accepted flow failed: %v", err)
		}
		if back.Key() != fl.Key() {
			t.Fatalf("round trip changed the flow: %q -> %q", fl.Key(), back.Key())
		}
	})
}
