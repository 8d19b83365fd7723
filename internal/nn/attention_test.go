package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedtrans/internal/tensor"
)

func TestAttentionShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewAttentionCellHeads(6, 12, 4, 1, rng)
	x := tensor.New(2, 4, 6)
	x.RandNormal(rng, 1)
	out := c.Forward(x)
	for i, w := range []int{2, 4, 6} {
		if out.Shape[i] != w {
			t.Fatalf("shape %v", out.Shape)
		}
	}
	if c.Dim() != 6 || c.FF() != 12 {
		t.Errorf("Dim/FF = %d/%d", c.Dim(), c.FF())
	}
}

func TestAttentionGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewAttentionCellHeads(3, 5, 3, 1, rng)
	x := tensor.New(2, 3, 3)
	x.RandNormal(rng, 1)
	forward := func() *tensor.Tensor { return c.Forward(x) }
	out := forward()
	ZeroGrads(c)
	gin := c.Backward(lossGrad(out))
	params := c.Params()
	grads := c.Grads()
	for pi, p := range params {
		for i := 0; i < p.Len(); i++ {
			want := numericalGrad(forward, p, i)
			if math.Abs(float64(grads[pi].Data[i])-want) > 3e-2*(1+math.Abs(want)) {
				t.Fatalf("param %d idx %d: analytic %.6f vs numeric %.6f", pi, i, grads[pi].Data[i], want)
			}
		}
	}
	for i := 0; i < x.Len(); i++ {
		want := numericalGrad(forward, x, i)
		if math.Abs(float64(gin.Data[i])-want) > 3e-2*(1+math.Abs(want)) {
			t.Fatalf("input grad idx %d: analytic %.6f vs numeric %.6f", i, gin.Data[i], want)
		}
	}
}

func TestAttentionIdentityLike(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewAttentionCellHeads(4, 8, 5, 1, rng)
	id := c.IdentityLike().(*AttentionCell)
	x := tensor.New(2, 5, 4)
	x.RandNormal(rng, 1) // attention identity holds for any sign
	out := id.Forward(x)
	if !tensor.Equal(x, out, 1e-12) {
		t.Error("attention IdentityLike is not exact identity")
	}
}

func TestAttentionWidenSelfPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewAttentionCellHeads(4, 6, 3, 1, rng)
	x := tensor.New(1, 3, 4)
	x.RandNormal(rng, 1)
	want := c.Forward(x)
	c.WidenSelf(2, rng)
	if c.FF() != 12 {
		t.Fatalf("FF after widen = %d, want 12", c.FF())
	}
	got := c.Forward(x)
	if !tensor.Equal(want, got, 1e-5) {
		t.Error("WidenSelf changed the function")
	}
}

func TestAttentionWidenSelfMinimumGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewAttentionCellHeads(4, 6, 3, 1, rng)
	c.WidenSelf(1.0, rng) // factor too small: must still grow by 1
	if c.FF() != 7 {
		t.Errorf("FF = %d, want 7", c.FF())
	}
}

func TestAttentionCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewAttentionCellHeads(4, 8, 3, 1, rng)
	cl := c.Clone().(*AttentionCell)
	cl.Wq.Set(0, 0, 123)
	if c.Wq.Data[0] == 123 {
		t.Error("clone write leaked into parent Wq")
	}
	x := tensor.New(1, 3, 4)
	x.RandNormal(rng, 1)
	// Clone (before mutation) must compute the same function; rebuild.
	cl2 := c.Clone().(*AttentionCell)
	if !tensor.Equal(c.Forward(x), cl2.Forward(x), 1e-12) {
		t.Error("clone computes a different function")
	}
}

// TestAttentionMACsFormula pins the itemized MACs accounting: three
// input projections plus the output projection (4·t·d²), the two
// quadratic batched score/attention products (2·t²·d), and the
// feed-forward pair (2·t·d·f) — and verifies the tokens term follows
// the most recent Forward's sequence length.
func TestAttentionMACsFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	macs := func(tokens, d, ff int) float64 {
		return float64(3*tokens*d*d + 2*tokens*tokens*d + tokens*d*d + 2*tokens*d*ff)
	}
	for _, sz := range [][3]int{{3, 5, 2}, {6, 12, 4}, {64, 128, 16}} {
		d, ff, tokens := sz[0], sz[1], sz[2]
		c := NewAttentionCellHeads(d, ff, tokens, 1, rng)
		if got, want := c.MACsPerSample(), macs(tokens, d, ff); got != want {
			t.Errorf("MACs(d=%d, ff=%d, t=%d) = %v, want %v", d, ff, tokens, got, want)
		}
	}
	c := NewAttentionCellHeads(4, 8, 3, 1, rng)
	x := tensor.New(2, 5, 4) // sequence length 5 overrides the constructed 3
	x.RandNormal(rng, 1)
	c.Forward(x)
	if got, want := c.MACsPerSample(), macs(5, 4, 8); got != want {
		t.Errorf("MACs after t=5 Forward = %v, want %v", got, want)
	}
}

func TestAttentionMACsGrowWithFF(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	small := NewAttentionCellHeads(4, 4, 3, 1, rng)
	big := NewAttentionCellHeads(4, 16, 3, 1, rng)
	if small.MACsPerSample() >= big.MACsPerSample() {
		t.Error("MACs must grow with FF width")
	}
}

func TestMeanTokens(t *testing.T) {
	c := NewMeanTokensCell()
	x := tensor.New(1, 2, 3)
	copy(x.Data, []tensor.Float{1, 2, 3, 5, 6, 7})
	out := c.Forward(x)
	want := []tensor.Float{3, 4, 5}
	for i, w := range want {
		if math.Abs(float64(out.Data[i]-w)) > 1e-12 {
			t.Fatalf("mean tokens = %v, want %v", out.Data, want)
		}
	}
	g := tensor.FromSlice([]tensor.Float{2, 4, 6}, 1, 3)
	gin := c.Backward(g)
	for tok := 0; tok < 2; tok++ {
		for j := 0; j < 3; j++ {
			if gin.Data[tok*3+j] != g.Data[j]/2 {
				t.Fatalf("mean tokens backward = %v", gin.Data)
			}
		}
	}
	if _, ok := Cell(c).(WidthTransparent); !ok {
		t.Error("MeanTokensCell must be width-transparent")
	}
}
