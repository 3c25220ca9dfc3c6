package nn

import (
	"fmt"
	"math/rand"
)

// ArchConfig describes a flow-classification CNN in the shape of the
// paper's Figure 3: conv → pool → conv → pool → locally-connected →
// dense → dropout → logits, over a 2-D one-hot flow image.
type ArchConfig struct {
	InH, InW   int        // input image size (paper: 12×12 reshaped 24×6)
	KH, KW     int        // convolution kernel (paper sweeps 3×6, 6×6, 6×12)
	Filters    int        // kernels per conv layer (paper: 200)
	PoolStride int        // pooling stride (paper: 1)
	LocalKH    int        // locally connected kernel (square)
	LocalC     int        // locally connected output channels
	DenseUnits int        // hidden dense width
	Dropout    float64    // dropout rate (paper: 0.4)
	Act        Activation // activation for conv/local/dense layers
	NumClasses int
}

// PaperArch returns the exact architecture of Figure 3 with the paper's
// best hyperparameters (6×12 kernels, 200 filters, SELU, dropout 0.4).
// It is expensive on CPU; FastArch is the scaled default.
func PaperArch(numClasses int) ArchConfig {
	return ArchConfig{
		InH: 12, InW: 12,
		KH: 6, KW: 12,
		Filters:    200,
		PoolStride: 1,
		LocalKH:    3, LocalC: 16,
		DenseUnits: 128,
		Dropout:    0.4,
		Act:        SELU,
		NumClasses: numClasses,
	}
}

// FastArch returns a scaled-down configuration with the same topology,
// sized for CPU-only experimentation (the shape comparisons of Figures
// 4–7 are run at this scale unless overridden).
func FastArch(numClasses int) ArchConfig {
	return ArchConfig{
		InH: 12, InW: 12,
		KH: 3, KW: 6,
		Filters:    8,
		PoolStride: 2,
		LocalKH:    2, LocalC: 8,
		DenseUnits: 32,
		Dropout:    0.4,
		Act:        SELU,
		NumClasses: numClasses,
	}
}

// MaxValues bounds the networks Validate accepts: each size, the
// parameter count, and the values one sample takes in the widest layer
// buffer, a convolution's patch matrix (at most Filters·KH·KW·InH·InW).
// 2^24 (128 MiB of float64) is 3.4 times PaperArch's 4.9 million
// parameters and 8 times its Filters·KH·KW·InH·InW.
const MaxValues = 1 << 24

// Validate reports whether Build can instantiate cfg: every size in
// [1, MaxValues], dropout in [0, 1), two 2×2 poolings at PoolStride
// that each leave a non-empty feature map, and at most MaxValues
// parameters and values per sample in a patch matrix. Build panics or
// exhausts memory on a configuration Validate refuses, so a
// configuration read from outside the program must pass it first.
func (cfg ArchConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"InH", cfg.InH}, {"InW", cfg.InW}, {"KH", cfg.KH}, {"KW", cfg.KW},
		{"Filters", cfg.Filters}, {"PoolStride", cfg.PoolStride}, {"LocalKH", cfg.LocalKH},
		{"LocalC", cfg.LocalC}, {"DenseUnits", cfg.DenseUnits}, {"NumClasses", cfg.NumClasses},
	} {
		if f.v < 1 || f.v > MaxValues {
			return fmt.Errorf("nn: architecture %s %d outside [1, %d]", f.name, f.v, MaxValues)
		}
	}
	if !(cfg.Dropout >= 0 && cfg.Dropout < 1) {
		return fmt.Errorf("nn: dropout %v outside [0, 1)", cfg.Dropout)
	}
	if mulCapped(cfg.Filters, cfg.KH, cfg.KW, cfg.InH, cfg.InW) > MaxValues {
		return fmt.Errorf("nn: a %d-filter %dx%d convolution over %dx%d inputs exceeds %d values per sample",
			cfg.Filters, cfg.KH, cfg.KW, cfg.InH, cfg.InW, MaxValues)
	}
	h, w, ok := cfg.pooled()
	if !ok {
		return fmt.Errorf("nn: pooling %dx%d inputs twice at stride %d leaves no feature map",
			cfg.InH, cfg.InW, cfg.PoolStride)
	}
	if n := cfg.params(h, w); n > MaxValues {
		return fmt.Errorf("nn: architecture has more than %d parameters", MaxValues)
	}
	return nil
}

// pooled gives the feature map after the two 2×2 poolings, and whether
// each pooling had at least two rows and columns to pool.
func (cfg ArchConfig) pooled() (h, w int, ok bool) {
	h, w = cfg.InH, cfg.InW
	for range 2 {
		if h < 2 || w < 2 {
			return 0, 0, false
		}
		h = (h-2)/cfg.PoolStride + 1
		w = (w-2)/cfg.PoolStride + 1
	}
	return h, w, true
}

// params counts the parameters of Build(cfg) over an h×w pooled feature
// map, or gives MaxValues+1 once the count passes MaxValues. Every size
// is in [1, MaxValues], so the sum of capped terms cannot overflow.
func (cfg ArchConfig) params(h, w int) int {
	lk := min(cfg.LocalKH, h, w)
	h, w = h-lk+1, w-lk+1
	return min(MaxValues+1,
		mulCapped(cfg.Filters, cfg.KH, cfg.KW)+cfg.Filters+ // conv 1
			mulCapped(cfg.Filters, cfg.Filters, cfg.KH, cfg.KW)+cfg.Filters+ // conv 2
			mulCapped(h, w, cfg.LocalC, cfg.Filters, lk, lk)+mulCapped(h, w, cfg.LocalC)+ // locally connected
			mulCapped(cfg.LocalC, h, w, cfg.DenseUnits)+cfg.DenseUnits+ // hidden dense
			mulCapped(cfg.DenseUnits, cfg.NumClasses)+cfg.NumClasses) // logits
}

// mulCapped multiplies positive factors, giving MaxValues+1 once the
// product passes MaxValues, so no product of untrusted sizes overflows.
func mulCapped(xs ...int) int {
	p := 1
	for _, x := range xs {
		if p > MaxValues/x {
			return MaxValues + 1
		}
		p *= x
	}
	return p
}

// Build instantiates the network with deterministic initialization from
// the seed. The network is batch-first: feed it N×1×InH×InW tensors.
func (cfg ArchConfig) Build(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	n := &Network{}
	add := func(l Layer) { n.Layers = append(n.Layers, l) }

	h, w := cfg.InH, cfg.InW
	add(NewConv2D(rng, 1, cfg.Filters, cfg.KH, cfg.KW))
	add(NewActLayer(cfg.Act))
	add(NewMaxPool2D(2, 2, cfg.PoolStride))
	h = (h-2)/cfg.PoolStride + 1
	w = (w-2)/cfg.PoolStride + 1
	add(NewConv2D(rng, cfg.Filters, cfg.Filters, cfg.KH, cfg.KW))
	add(NewActLayer(cfg.Act))
	add(NewMaxPool2D(2, 2, cfg.PoolStride))
	h = (h-2)/cfg.PoolStride + 1
	w = (w-2)/cfg.PoolStride + 1

	lk := cfg.LocalKH
	if lk > h {
		lk = h
	}
	if lk > w {
		lk = w
	}
	add(NewLocallyConnected2D(rng, cfg.Filters, h, w, cfg.LocalC, lk, lk))
	add(NewActLayer(cfg.Act))
	h, w = h-lk+1, w-lk+1

	add(&Flatten{})
	add(NewDense(rng, cfg.LocalC*h*w, cfg.DenseUnits))
	add(NewActLayer(cfg.Act))
	add(NewDropout(rng, cfg.Dropout))
	add(NewDense(rng, cfg.DenseUnits, cfg.NumClasses))
	return n
}
