package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedtrans/internal/tensor"
)

// TestAttentionHeadsOneBitIdentical pins the contract the golden
// determinism suite rests on: two heads=1 cells built from one seed
// compute forward and backward byte-identically — not merely close.
func TestAttentionHeadsOneBitIdentical(t *testing.T) {
	const batch, tokens, d, ff = 3, 5, 6, 12
	single := NewAttentionCellHeads(d, ff, tokens, 1, rand.New(rand.NewSource(41)))
	one := NewAttentionCellHeads(d, ff, tokens, 1, rand.New(rand.NewSource(41)))
	for pi, p := range single.Params() {
		q := one.Params()[pi]
		for i := range p.Data {
			if p.Data[i] != q.Data[i] {
				t.Fatalf("param %d idx %d differs after identical init", pi, i)
			}
		}
	}
	rng := rand.New(rand.NewSource(42))
	x := tensor.New(batch, tokens, d)
	x.RandNormal(rng, 1)
	outS := single.Forward(x)
	outH := one.Forward(x)
	for i := range outS.Data {
		if outS.Data[i] != outH.Data[i] {
			t.Fatalf("forward[%d]: single %x vs heads=1 %x", i, outS.Data[i], outH.Data[i])
		}
	}
	ZeroGrads(single)
	ZeroGrads(one)
	ginS := single.Backward(lossGrad(outS))
	ginH := one.Backward(lossGrad(outH))
	for i := range ginS.Data {
		if ginS.Data[i] != ginH.Data[i] {
			t.Fatalf("input grad[%d]: single %x vs heads=1 %x", i, ginS.Data[i], ginH.Data[i])
		}
	}
	for pi, g := range single.Grads() {
		gh := one.Grads()[pi]
		for i := range g.Data {
			if g.Data[i] != gh.Data[i] {
				t.Fatalf("grad %d idx %d: single %x vs heads=1 %x", pi, i, g.Data[i], gh.Data[i])
			}
		}
	}
}

// TestAttentionHeadsSweepShapes verifies output shapes, the reported
// head count, and that multi-head actually partitions the computation:
// with identical weights, heads=2 computes a different function from
// heads=1 (the score products see different column slices).
func TestAttentionHeadsSweepShapes(t *testing.T) {
	const batch, tokens, d, ff = 2, 4, 8, 6
	outs := map[int]*tensor.Tensor{}
	for _, heads := range []int{1, 2, 4} {
		c := NewAttentionCellHeads(d, ff, tokens, heads, rand.New(rand.NewSource(51)))
		if c.Heads() != heads {
			t.Fatalf("Heads() = %d, want %d", c.Heads(), heads)
		}
		x := tensor.New(batch, tokens, d)
		x.RandNormal(rand.New(rand.NewSource(52)), 1)
		out := c.Forward(x)
		for i, w := range []int{batch, tokens, d} {
			if out.Shape[i] != w {
				t.Fatalf("heads=%d output shape %v", heads, out.Shape)
			}
		}
		cp := tensor.New(out.Shape...)
		copy(cp.Data, out.Data)
		outs[heads] = cp
	}
	if tensor.Equal(outs[1], outs[2], 1e-6) {
		t.Error("heads=2 output equals heads=1 with identical weights; head partition is a no-op")
	}
	if tensor.Equal(outs[2], outs[4], 1e-6) {
		t.Error("heads=4 output equals heads=2 with identical weights; head partition is a no-op")
	}
}

// TestAttentionGradientCheckHeads repeats the direct float32 numerical
// gradient check across the head sweep (the ref64 FD suite pins the same
// gradients tighter; this one exercises the production Forward in the
// difference quotient).
func TestAttentionGradientCheckHeads(t *testing.T) {
	for _, heads := range []int{2, 4} {
		t.Run(fmt.Sprintf("heads=%d", heads), func(t *testing.T) {
			rng := rand.New(rand.NewSource(53))
			c := NewAttentionCellHeads(4, 5, 3, heads, rng)
			x := tensor.New(2, 3, 4)
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
						t.Fatalf("param %d idx %d: analytic %.6f vs numeric %.6f",
							pi, i, grads[pi].Data[i], want)
					}
				}
			}
			for i := 0; i < x.Len(); i++ {
				want := numericalGrad(forward, x, i)
				if math.Abs(float64(gin.Data[i])-want) > 3e-2*(1+math.Abs(want)) {
					t.Fatalf("input grad idx %d: analytic %.6f vs numeric %.6f", i, gin.Data[i], want)
				}
			}
		})
	}
}

// TestAttentionHeadsStructuralOps covers the cell-graph operations that
// must carry the head count: Clone, IdentityLike (exact identity at any
// H), WidenSelf (function-preserving at any H), and the MACs invariance
// (H heads each cost t²·d/H per quadratic product, so totals match).
func TestAttentionHeadsStructuralOps(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	c := NewAttentionCellHeads(8, 6, 4, 4, rng)
	if cl := c.Clone().(*AttentionCell); cl.Heads() != 4 {
		t.Errorf("Clone dropped heads: %d", cl.Heads())
	}
	id := c.IdentityLike().(*AttentionCell)
	if id.Heads() != 4 {
		t.Errorf("IdentityLike dropped heads: %d", id.Heads())
	}
	x := tensor.New(2, 4, 8)
	x.RandNormal(rng, 1)
	if out := id.Forward(x); !tensor.Equal(x, out, 1e-12) {
		t.Error("multi-head IdentityLike is not an exact identity")
	}
	want := c.Forward(x)
	keep := tensor.New(want.Shape...)
	copy(keep.Data, want.Data)
	c.WidenSelf(2, rng)
	if got := c.Forward(x); !tensor.Equal(keep, got, 1e-5) {
		t.Error("WidenSelf changed the function of a multi-head cell")
	}
	single := NewAttentionCellHeads(8, 6, 4, 1, rand.New(rand.NewSource(55)))
	multi := NewAttentionCellHeads(8, 6, 4, 4, rand.New(rand.NewSource(55)))
	if single.MACsPerSample() != multi.MACsPerSample() {
		t.Errorf("MACs differ across head counts: %v vs %v",
			single.MACsPerSample(), multi.MACsPerSample())
	}
}

// TestAttentionHeadsValidation pins the constructor contract.
func TestAttentionHeadsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for _, tc := range []struct{ d, heads int }{{6, 4}, {4, 0}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("d=%d heads=%d: expected panic", tc.d, tc.heads)
				}
			}()
			NewAttentionCellHeads(tc.d, 5, 3, tc.heads, rng)
		}()
	}
}
