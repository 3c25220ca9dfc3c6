package nn

import (
	"math"
	"strings"
	"testing"
)

// TestValidateAcceptsBuiltArchitectures: every registered architecture,
// under each of the experiment harness's kernels and over the m=1 (6×6)
// and paper (12×12) encodings, passes Validate, and Validate counts the
// parameters Build allocates.
func TestValidateAcceptsBuiltArchitectures(t *testing.T) {
	for _, base := range []ArchConfig{PaperArch(7), FastArch(7), FastArch(2)} {
		for _, k := range [][2]int{{3, 6}, {6, 6}, {6, 12}} {
			for _, in := range [][2]int{{6, 6}, {12, 12}, {4, 8}} {
				cfg := base
				cfg.KH, cfg.KW = k[0], k[1]
				cfg.InH, cfg.InW = in[0], in[1]
				if err := cfg.Validate(); err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
				h, w, _ := cfg.pooled()
				if got, want := cfg.params(h, w), cfg.Build(1).NumParams(); got != want {
					t.Fatalf("%+v: Validate counts %d parameters, Build allocates %d", cfg, got, want)
				}
			}
		}
	}
	paper := PaperArch(7)
	h, w, _ := paper.pooled()
	if n := paper.params(h, w); n != 4871127 {
		t.Fatalf("PaperArch has %d parameters; MaxValues's comment says 4.9 million", n)
	}
}

// TestValidateRefusesUnbuildable: each configuration here panics in
// Build or asks it for gigabytes; Validate refuses it first.
func TestValidateRefusesUnbuildable(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*ArchConfig)
		want string
	}{
		{"pool stride 0", func(c *ArchConfig) { c.PoolStride = 0 }, "PoolStride 0"},
		{"kernel height -1", func(c *ArchConfig) { c.KH = -1 }, "KH -1"},
		{"dense units -5", func(c *ArchConfig) { c.DenseUnits = -5 }, "DenseUnits -5"},
		{"no classes", func(c *ArchConfig) { c.NumClasses = 0 }, "NumClasses 0"},
		{"MaxInt filters", func(c *ArchConfig) { c.Filters = math.MaxInt }, "Filters"},
		{"dropout 2", func(c *ArchConfig) { c.Dropout = 2 }, "dropout"},
		{"dropout 1", func(c *ArchConfig) { c.Dropout = 1 }, "dropout"},
		{"dropout NaN", func(c *ArchConfig) { c.Dropout = math.NaN() }, "dropout"},
		{"one input row", func(c *ArchConfig) { c.InH, c.InW = 1, 144 }, "feature map"},
		{"stride past the map", func(c *ArchConfig) { c.PoolStride = 11 }, "feature map"},
		// With 32-bit ints 4·(2^30+36) wraps to 144, the paper encoding's size.
		{"wrapping input", func(c *ArchConfig) { c.InH, c.InW = 1<<30+36, 4 }, "InH"},
		{"wide patch matrix", func(c *ArchConfig) { c.KH, c.KW = 1024, 1024 }, "values per sample"},
		{"4000 filters", func(c *ArchConfig) { c.Filters = 4000 }, "parameters"},
		{"wide dense layer", func(c *ArchConfig) { c.DenseUnits = 1 << 20 }, "parameters"},
	} {
		cfg := FastArch(7)
		tc.edit(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate gave %v, want an error about %q", tc.name, err, tc.want)
		}
	}
}
