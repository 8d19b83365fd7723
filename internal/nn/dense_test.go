package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedtrans/internal/tensor"
)

// numericalGrad estimates dLoss/dparam by central differences, where loss
// is the sum of squared outputs of forward(x).
// numericalGrad central-differences the sum-of-squares loss. The step is
// sized for the float32 backend (sqrt of float32 eps, scaled to the
// parameter magnitude) and the divisor uses the achieved perturbation,
// so the check stays meaningful at backend precision.
func numericalGrad(forward func() *tensor.Tensor, p *tensor.Tensor, i int) float64 {
	orig := p.Data[i]
	eps := tensor.Float(1e-3)
	p.Data[i] = orig + eps
	hp := float64(p.Data[i])
	lp := sumSq(forward())
	p.Data[i] = orig - eps
	hm := float64(p.Data[i])
	lm := sumSq(forward())
	p.Data[i] = orig
	return (lp - lm) / (hp - hm)
}

func sumSq(t *tensor.Tensor) float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return s
}

// lossGrad returns dLoss/dOutput for loss = sum of squares.
func lossGrad(out *tensor.Tensor) *tensor.Tensor {
	g := out.Clone()
	g.Scale(2)
	return g
}

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewDenseCell(2, 2, false, rng)
	c.W.Data = []tensor.Float{1, 2, 3, 4} // rows = inputs
	c.B.Data = []tensor.Float{0.5, -0.5}
	x := tensor.FromSlice([]tensor.Float{1, 1}, 1, 2)
	out := c.Forward(x)
	// y = [1*1+1*3+0.5, 1*2+1*4-0.5] = [4.5, 5.5]
	if math.Abs(float64(out.At(0, 0))-4.5) > 1e-12 || math.Abs(float64(out.At(0, 1))-5.5) > 1e-12 {
		t.Errorf("forward = %v", out.Data)
	}
}

func TestDenseReLUClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewDenseCell(1, 1, true, rng)
	c.W.Data = []tensor.Float{-1}
	c.B.Data = []tensor.Float{0}
	x := tensor.FromSlice([]tensor.Float{5}, 1, 1)
	out := c.Forward(x)
	if out.Data[0] != 0 {
		t.Errorf("ReLU output = %v, want 0", out.Data[0])
	}
}

func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewDenseCell(4, 3, true, rng)
	x := tensor.New(2, 4)
	x.RandNormal(rng, 1)
	forward := func() *tensor.Tensor { return c.Forward(x) }
	out := forward()
	ZeroGrads(c)
	c.Backward(lossGrad(out))
	for pi, p := range c.Params() {
		g := c.Grads()[pi]
		for i := 0; i < p.Len(); i++ {
			want := numericalGrad(forward, p, i)
			if math.Abs(float64(g.Data[i])-want) > 2e-2*(1+math.Abs(want)) {
				t.Fatalf("param %d idx %d: analytic %.6f vs numeric %.6f", pi, i, g.Data[i], want)
			}
		}
	}
}

func TestDenseInputGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewDenseCell(3, 2, true, rng)
	x := tensor.New(1, 3)
	x.RandNormal(rng, 1)
	forward := func() *tensor.Tensor { return c.Forward(x) }
	out := forward()
	ZeroGrads(c)
	gin := c.Backward(lossGrad(out))
	for i := 0; i < x.Len(); i++ {
		want := numericalGrad(forward, x, i)
		if math.Abs(float64(gin.Data[i])-want) > 2e-2*(1+math.Abs(want)) {
			t.Fatalf("input grad idx %d: analytic %.6f vs numeric %.6f", i, gin.Data[i], want)
		}
	}
}

func TestDenseCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewDenseCell(2, 2, true, rng)
	cl := c.Clone().(*DenseCell)
	if !cl.W.SharesBufferWith(c.W) {
		t.Error("clone must alias the weight buffer until first write")
	}
	cl.W.Set(0, 0, 99)
	if c.W.Data[0] == 99 {
		t.Error("clone write leaked into parent weights")
	}
	if cl.W.SharesBufferWith(c.W) {
		t.Error("written clone must have detached its buffer")
	}
	if cl.ReLU != c.ReLU {
		t.Error("clone lost ReLU flag")
	}
}

func TestDenseWidenOutputPreservesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewDenseCell(3, 2, true, rng)
	w0 := c.W.Clone()
	mapping := []int{0, 1, 0, 1} // duplicate both
	c.WidenOutput(mapping)
	if c.OutDim() != 4 {
		t.Fatalf("OutDim = %d, want 4", c.OutDim())
	}
	for j, src := range mapping {
		for i := 0; i < 3; i++ {
			if c.W.At(i, j) != w0.At(i, src) {
				t.Fatalf("column %d not copied from %d", j, src)
			}
		}
	}
}

func TestDenseWidenInputScalesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewDenseCell(2, 2, false, rng)
	w0 := c.W.Clone()
	mapping := []int{0, 1, 0}
	counts := []int{2, 1}
	c.WidenInput(mapping, counts)
	if c.InDim() != 3 {
		t.Fatalf("InDim = %d", c.InDim())
	}
	// Row 0 and row 2 are row0/2; row 1 is row1/1.
	for k := 0; k < 2; k++ {
		if math.Abs(float64(c.W.At(0, k)-w0.At(0, k)/2)) > 1e-12 {
			t.Error("row 0 not scaled by 1/2")
		}
		if math.Abs(float64(c.W.At(2, k)-w0.At(0, k)/2)) > 1e-12 {
			t.Error("row 2 not scaled by 1/2")
		}
		if c.W.At(1, k) != w0.At(1, k) {
			t.Error("row 1 changed")
		}
	}
}

// TestDenseWidenPairPreservesFunction is the core Net2Wider property: a
// widened producer followed by a compensated consumer computes the same
// function.
func TestDenseWidenPairPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 20; iter++ {
		in, mid, out := 2+rng.Intn(5), 2+rng.Intn(5), 1+rng.Intn(4)
		a := NewDenseCell(in, mid, true, rng)
		b := NewDenseCell(mid, out, false, rng)
		x := tensor.New(3, in)
		x.RandNormal(rng, 1)
		want := b.Forward(a.Forward(x))
		newMid := mid + 1 + rng.Intn(4)
		mapping, counts := WidenMapping(mid, newMid, rng)
		a.WidenOutput(mapping)
		b.WidenInput(mapping, counts)
		got := b.Forward(a.Forward(x))
		if !tensor.Equal(want, got, 1e-5) {
			t.Fatalf("iter %d: widen pair changed the function", iter)
		}
	}
}

func TestDenseIdentityLike(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := NewDenseCell(3, 4, true, rng)
	id := c.IdentityLike().(*DenseCell)
	x := tensor.New(2, 4)
	// Identity with ReLU preserves only non-negative inputs.
	for i := range x.Data {
		x.Data[i] = tensor.Float(rng.Float64())
	}
	out := id.Forward(x)
	if !tensor.Equal(x, out, 1e-12) {
		t.Error("IdentityLike is not the identity on non-negative input")
	}
}

func TestDenseMACs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewDenseCell(10, 20, true, rng)
	if c.MACsPerSample() != 200 {
		t.Errorf("MACs = %v, want 200", c.MACsPerSample())
	}
	if ParamCount(c) != 10*20+20 {
		t.Errorf("ParamCount = %d", ParamCount(c))
	}
}

func TestWidenMappingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for iter := 0; iter < 50; iter++ {
		oldN := 1 + rng.Intn(10)
		newN := oldN + rng.Intn(10)
		mapping, counts := WidenMapping(oldN, newN, rng)
		if len(mapping) != newN || len(counts) != oldN {
			t.Fatal("wrong lengths")
		}
		// First oldN entries are identity.
		for i := 0; i < oldN; i++ {
			if mapping[i] != i {
				t.Fatal("identity prefix broken")
			}
		}
		// Counts consistent with mapping.
		check := make([]int, oldN)
		for _, src := range mapping {
			if src < 0 || src >= oldN {
				t.Fatal("mapping out of range")
			}
			check[src]++
		}
		for i := range counts {
			if counts[i] != check[i] {
				t.Fatal("counts inconsistent")
			}
			if counts[i] < 1 {
				t.Fatal("every source must appear at least once")
			}
		}
	}
}

func TestWidenMappingPanicsOnShrink(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	WidenMapping(5, 3, rand.New(rand.NewSource(1)))
}
