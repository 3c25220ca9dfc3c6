// Prediction-throughput benchmark for the batch-first neural engine.
// BenchmarkPredictPool classifies a ≥5k-flow pool two ways each
// iteration: through the f64 nn.Predictor's PredictStream (im2col+GEMM
// batched execution sharded over the prediction worker pool) and
// through a faithful replica of the pre-refactor path — one sample per
// forward call, naive nested loops with per-element coordinate
// indexing. The replica's argmaxes are cross-checked against the
// batched path, and the speedup is reported as the "x-vs-single-sample"
// metric. The ratio is a measurement, not a gate: only the argmax
// cross-check fails a run.
package flowgen

import (
	"context"
	"math"
	"testing"
	"time"

	"flowgen/internal/core"
	"flowgen/internal/flow"
	"flowgen/internal/nn"
	"flowgen/internal/tensor"
	"flowgen/internal/train"
)

// naiveForward replays the pre-refactor single-sample inference loops
// over a C×H×W tensor, layer by layer, using the current network's
// weights.
func naiveForward(net *nn.Network, x *tensor.Tensor) []float64 {
	for _, layer := range net.Layers {
		switch l := layer.(type) {
		case *nn.Conv2D:
			h, w := x.Shape[1], x.Shape[2]
			out := tensor.New(l.OutC, h, w)
			padY, padX := (l.KH-1)/2, (l.KW-1)/2
			widx := func(oc, ic, ky, kx int) int {
				return ((oc*l.InC+ic)*l.KH+ky)*l.KW + kx
			}
			for oc := 0; oc < l.OutC; oc++ {
				for y := 0; y < h; y++ {
					for xx := 0; xx < w; xx++ {
						sum := l.B.Data[oc]
						for ic := 0; ic < l.InC; ic++ {
							for ky := 0; ky < l.KH; ky++ {
								iy := y + ky - padY
								if iy < 0 || iy >= h {
									continue
								}
								for kx := 0; kx < l.KW; kx++ {
									ix := xx + kx - padX
									if ix < 0 || ix >= w {
										continue
									}
									sum += l.W.Data[widx(oc, ic, ky, kx)] * x.At(ic, iy, ix)
								}
							}
						}
						out.Set(sum, oc, y, xx)
					}
				}
			}
			x = out
		case *nn.MaxPool2D:
			ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
			oh := (h-l.KH)/l.Stride + 1
			ow := (w-l.KW)/l.Stride + 1
			out := tensor.New(ch, oh, ow)
			oi := 0
			for c := 0; c < ch; c++ {
				for y := 0; y < oh; y++ {
					for xx := 0; xx < ow; xx++ {
						best := math.Inf(-1)
						for ky := 0; ky < l.KH; ky++ {
							for kx := 0; kx < l.KW; kx++ {
								if v := x.At(c, y*l.Stride+ky, xx*l.Stride+kx); v > best {
									best = v
								}
							}
						}
						out.Data[oi] = best
						oi++
					}
				}
			}
			x = out
		case *nn.LocallyConnected2D:
			out := tensor.New(l.OutC, l.OH, l.OW)
			k := l.InC * l.KH * l.KW
			for y := 0; y < l.OH; y++ {
				for xx := 0; xx < l.OW; xx++ {
					for oc := 0; oc < l.OutC; oc++ {
						base := ((y*l.OW+xx)*l.OutC + oc) * k
						sum := l.B.Data[(y*l.OW+xx)*l.OutC+oc]
						wi := base
						for ic := 0; ic < l.InC; ic++ {
							for ky := 0; ky < l.KH; ky++ {
								for kx := 0; kx < l.KW; kx++ {
									sum += l.W.Data[wi] * x.At(ic, y+ky, xx+kx)
									wi++
								}
							}
						}
						out.Set(sum, oc, y, xx)
					}
				}
			}
			x = out
		case *nn.Dense:
			out := tensor.New(l.Out)
			for o := 0; o < l.Out; o++ {
				sum := l.B.Data[o]
				row := l.W.Data[o*l.In : (o+1)*l.In]
				for i, xv := range x.Data {
					sum += row[i] * xv
				}
				out.Data[o] = sum
			}
			x = out
		case *nn.ActLayer:
			out := tensor.New(x.Shape...)
			for i, v := range x.Data {
				out.Data[i] = l.Act.Apply(v)
			}
			x = out
		case *nn.Dropout:
			// Identity at inference.
		case *nn.Flatten:
			x = x.Reshape(x.Size())
		default:
			panic("unknown layer in naive replica: " + layer.Name())
		}
	}
	return nn.Softmax(x.Data)
}

// BenchmarkPredictPool measures pool-prediction throughput on a 5000-flow
// pool at FastArch scale and reports the speedup over the pre-refactor
// single-sample path.
func BenchmarkPredictPool(b *testing.B) {
	const poolN = 5000
	space := flow.NewSpace(flow.DefaultAlphabet, 2)
	h, w := core.EncodeShape(space)
	arch := nn.FastArch(7)
	arch.InH, arch.InW = h, w
	net := arch.Build(1)

	flows := space.RandomUnique(newRand(3), poolN)
	hw := h * w
	x := tensor.New(poolN, 1, h, w)
	for i, f := range flows {
		copy(x.Data[i*hw:(i+1)*hw], f.Encode(space, h, w))
	}
	pred, err := nn.NewPredictor(net, nn.F64, h, w)
	if err != nil {
		b.Fatal(err)
	}
	src := core.FlowSource(space, flows, h, w)
	predict := func(workers int) [][]float64 {
		probs, err := pred.PredictStream(context.Background(), poolN, workers, src)
		if err != nil {
			b.Fatal(err)
		}
		return probs
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One worker isolates the batching/GEMM gain from parallelism —
		// the conservative single-core ratio; the parallel run shows the
		// full production path.
		t0 := time.Now()
		probs1 := predict(1)
		batched1 := time.Since(t0)

		t1 := time.Now()
		probs := predict(0)
		parallel := time.Since(t1)

		t2 := time.Now()
		mismatches := 0
		for s := 0; s < poolN; s++ {
			ref := naiveForward(net, x.SampleView(s))
			if train.Argmax(ref) != train.Argmax(probs[s]) || train.Argmax(ref) != train.Argmax(probs1[s]) {
				mismatches++
			}
		}
		single := time.Since(t2)
		if mismatches > 0 {
			b.Fatalf("batched and single-sample argmax disagree on %d/%d flows", mismatches, poolN)
		}
		b.ReportMetric(float64(poolN)/parallel.Seconds(), "flows/s")
		b.ReportMetric(single.Seconds()/batched1.Seconds(), "x-vs-single-sample")
		b.ReportMetric(single.Seconds()/parallel.Seconds(), "x-parallel")
	}
}
