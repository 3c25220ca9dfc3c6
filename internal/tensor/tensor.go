// Package tensor provides the minimal dense float64 tensor used by the
// neural-network stack: shape bookkeeping, indexing, and element
// iteration. It deliberately has no external dependencies and no
// broadcasting — layers index explicitly, which keeps backpropagation
// code auditable.
package tensor

import "fmt"

// Tensor is a dense row-major float64 tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: invalid dimension %d", s))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape (no copy).
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if t.Size() != len(data) {
		panic(fmt.Sprintf("tensor: %v does not hold %d elements", shape, len(data)))
	}
	return t
}

// Size returns the number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, s := range t.Shape {
		n *= s
	}
	return n
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape of equal size (shares data).
func (t *Tensor) Reshape(shape ...int) *Tensor {
	v := &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
	if v.Size() != t.Size() {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return v
}

// Idx computes the flat index of the coordinates.
func (t *Tensor) Idx(coords ...int) int {
	if len(coords) != len(t.Shape) {
		panic("tensor: coordinate rank mismatch")
	}
	idx := 0
	for d, c := range coords {
		if c < 0 || c >= t.Shape[d] {
			panic(fmt.Sprintf("tensor: coord %d out of range for dim %d (%d)", c, d, t.Shape[d]))
		}
		idx = idx*t.Shape[d] + c
	}
	return idx
}

// At returns the element at the coordinates.
func (t *Tensor) At(coords ...int) float64 { return t.Data[t.Idx(coords...)] }

// Set assigns the element at the coordinates.
func (t *Tensor) Set(v float64, coords ...int) { t.Data[t.Idx(coords...)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Batch returns the leading (batch) dimension N of the tensor.
func (t *Tensor) Batch() int {
	if len(t.Shape) == 0 {
		panic("tensor: rank-0 tensor has no batch dimension")
	}
	return t.Shape[0]
}

// SampleSize returns the number of elements per sample (the product of
// all dimensions after the leading batch dimension).
func (t *Tensor) SampleSize() int {
	n := 1
	for _, s := range t.Shape[1:] {
		n *= s
	}
	return n
}

// SampleView returns sample i of a batched tensor as a view of rank
// len(Shape)-1 (shares data).
func (t *Tensor) SampleView(i int) *Tensor {
	stride := t.SampleSize()
	if i < 0 || i >= t.Shape[0] {
		panic(fmt.Sprintf("tensor: sample %d out of range for batch %d", i, t.Shape[0]))
	}
	return &Tensor{
		Shape: append([]int(nil), t.Shape[1:]...),
		Data:  t.Data[i*stride : (i+1)*stride],
	}
}

// BatchView returns samples [lo, hi) of a batched tensor as a view with
// leading dimension hi-lo (shares data).
func (t *Tensor) BatchView(lo, hi int) *Tensor {
	if lo < 0 || hi > t.Shape[0] || lo >= hi {
		panic(fmt.Sprintf("tensor: batch view [%d,%d) of batch %d", lo, hi, t.Shape[0]))
	}
	stride := t.SampleSize()
	shape := append([]int(nil), t.Shape...)
	shape[0] = hi - lo
	return &Tensor{Shape: shape, Data: t.Data[lo*stride : hi*stride]}
}

// SameShape reports whether the two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}
