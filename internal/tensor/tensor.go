// Package tensor provides the minimal dense-tensor substrate used by the
// neural-network stack. Tensors are row-major buffers of the backend
// element type Float with an explicit shape. The package favors clarity
// and determinism over raw speed: all experiments in this repository run
// at CPU scale.
//
// # The float32 compute backend
//
// Float is an alias for float32: the wire format (internal/codec) already
// ships weights as float32, so computing in float32 loses nothing on the
// network path and halves the memory traffic of every GEMM-bound hot
// loop. The kernels in gemm.go are generic over float32/float64; the
// float64 instantiation is retained as the high-precision reference used
// by parity tests (see Ref64 helpers in gemm.go and the nn package's
// NaiveForward/NaiveBackward, which accumulate in float64).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
)

// Float is the backend element type of all tensor storage and kernels.
// It is a type alias, so []Float and []float32 are interchangeable —
// codec and persistence code can move Data to and from the float32 wire
// format without per-element conversion.
type Float = float32

// Tensor is a dense row-major tensor of the backend element type. The
// unexported cow field carries the copy-on-write share state installed
// by LazyClone (see cow.go); a nil state means the header owns Data
// exclusively. Code outside this package that writes Data directly (raw
// index expressions rather than the mutating methods/kernels) must call
// EnsureOwned first.
type Tensor struct {
	Shape []int
	Data  []Float

	cow atomic.Pointer[cowState]
}

// New returns a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in shape %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]Float, n)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []Float, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elems, got %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy with its own buffer. Prefer LazyClone when
// the copy is read-mostly — it defers the buffer copy to first write.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape of identical element count.
// The view aliases Data without COW tracking: do not write through a
// view of a shared tensor.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v element mismatch", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// ForOverlap walks the region two tensors of equal rank share — indices
// below min(dst.Shape[a], src.Shape[a]) on every axis a, the top-left
// crop of a HeteroFL submodel or of soft aggregation across a widen —
// and calls fn once per run of n elements contiguous in both, with the
// run's flat offsets di into dst.Data and si into src.Data. Trailing
// axes on which the shapes agree are folded into the run, so two
// tensors of one shape are a single run.
//
// Runs arrive in ascending di, which is row-major order. A caller that
// handles element j of a run from src.Data[si+j] at dst position di+j,
// j ascending, therefore visits every shared element exactly once and
// in the order an element-by-element row-major walk would: an
// accumulation moved onto ForOverlap keeps every bit.
func ForOverlap(dst, src *Tensor, fn func(di, si, n int)) {
	if len(dst.Shape) != len(src.Shape) {
		panic(fmt.Sprintf("tensor: overlap of shapes %v and %v", dst.Shape, src.Shape))
	}
	// axis is the outermost one a run spans; inner counts the elements
	// of the agreeing axes after it.
	axis, inner := len(dst.Shape)-1, 1
	for axis > 0 && dst.Shape[axis] == src.Shape[axis] {
		inner *= dst.Shape[axis]
		axis--
	}
	n := min(dst.Shape[axis], src.Shape[axis]) * inner
	runs := 1
	for a := 0; a < axis; a++ {
		runs *= min(dst.Shape[a], src.Shape[a])
	}
	for r := 0; r < runs; r++ {
		// Decompose r into the outer index, last outer axis first.
		di, si, rest := 0, 0, r
		dStride, sStride := dst.Shape[axis]*inner, src.Shape[axis]*inner
		for a := axis - 1; a >= 0; a-- {
			lim := min(dst.Shape[a], src.Shape[a])
			di += rest % lim * dStride
			si += rest % lim * sStride
			rest /= lim
			dStride *= dst.Shape[a]
			sStride *= src.Shape[a]
		}
		fn(di, si, n)
	}
}

// At returns the element at a 2-D index of a rank-2 tensor.
func (t *Tensor) At(i, j int) Float { return t.Data[i*t.Shape[1]+j] }

// Set assigns the element at a 2-D index of a rank-2 tensor.
func (t *Tensor) Set(i, j int, v Float) {
	t.EnsureOwned()
	t.Data[i*t.Shape[1]+j] = v
}

// Zero sets every element to zero. A shared tensor detaches onto a fresh
// zeroed buffer instead of copying the old contents first.
func (t *Tensor) Zero() {
	if t.detach(false) {
		return
	}
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v (no-copy detach: contents are fully
// overwritten).
func (t *Tensor) Fill(v Float) {
	t.detach(false)
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AddScaled accumulates alpha*other into t element-wise.
func (t *Tensor) AddScaled(other *Tensor, alpha float64) {
	if len(t.Data) != len(other.Data) {
		panic("tensor: AddScaled size mismatch")
	}
	t.EnsureOwned()
	al := Float(alpha)
	for i, v := range other.Data {
		t.Data[i] += al * v
	}
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float64) {
	t.EnsureOwned()
	al := Float(alpha)
	for i := range t.Data {
		t.Data[i] *= al
	}
}

// Norm returns the L2 norm of the tensor, accumulated in float64 so the
// reduction does not lose precision on large tensors.
func (t *Tensor) Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the maximum absolute element value.
func (t *Tensor) MaxAbs() float64 {
	m := Float(0)
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return float64(m)
}

// RandNormal fills the tensor with N(0, std^2) samples from rng
// (no-copy detach: contents are fully overwritten).
func (t *Tensor) RandNormal(rng *rand.Rand, std float64) {
	t.detach(false)
	for i := range t.Data {
		t.Data[i] = Float(rng.NormFloat64() * std)
	}
}

// Softmax applies a numerically stable row-wise softmax to a rank-2 tensor,
// returning a new tensor.
func Softmax(t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic("tensor: Softmax requires rank-2 input")
	}
	out := New(t.Shape...)
	softmaxRows(out.Data, t.Data, t.Shape[0], t.Shape[1])
	return out
}

// ArgMaxRow returns the index of the largest value in row i of a rank-2
// tensor.
func (t *Tensor) ArgMaxRow(i int) int {
	cols := t.Shape[1]
	row := t.Data[i*cols : (i+1)*cols]
	best, bi := row[0], 0
	for j, v := range row[1:] {
		if v > best {
			best, bi = v, j+1
		}
	}
	return bi
}

// Equal reports whether two tensors have identical shape and all elements
// within tol of each other.
func Equal(a, b *Tensor, tol float64) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i])-float64(b.Data[i])) > tol {
			return false
		}
	}
	return true
}

// MaxDiff returns the maximum absolute element-wise difference between a
// backend-precision tensor and a float64 reference buffer of the same
// element count — the parity metric used by the float32-vs-float64
// kernel tests.
func MaxDiff(a *Tensor, ref []float64) float64 {
	if len(a.Data) != len(ref) {
		panic("tensor: MaxDiff length mismatch")
	}
	worst := 0.0
	for i, v := range a.Data {
		if d := math.Abs(float64(v) - ref[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// Widen returns the tensor's elements widened to a float64 slice — the
// entry point of the float64 reference path used by parity tests.
func (t *Tensor) Widen() []float64 {
	out := make([]float64, len(t.Data))
	for i, v := range t.Data {
		out[i] = float64(v)
	}
	return out
}
