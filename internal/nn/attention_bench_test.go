package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"fedtrans/internal/tensor"
)

// The attention benchmarks run one ViT-style cell (batch 8, 16 tokens,
// model dim 64, feed-forward 128), the shape PERF.md's history quotes
// attention numbers at. Both passes must stay at 0 allocs/op: all
// scratch is pooled workspace memory and the per-head products work in
// place on the projections.
func benchAttentionHeads(b *testing.B, heads int) (*AttentionCell, *tensor.Tensor) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	const batch, tokens, d, ff = 8, 16, 64, 128
	c := NewAttentionCellHeads(d, ff, tokens, heads, rng)
	x := tensor.New(batch, tokens, d)
	x.RandNormal(rng, 1)
	return c, x
}

func benchAttention(b *testing.B) (*AttentionCell, *tensor.Tensor) {
	return benchAttentionHeads(b, 1)
}

// The forward benchmark sweeps the head count: heads=1 is the
// single-head cell, heads=4 runs four times the (item, head) blocks over
// narrower slices — the multi-head cost profile.
func BenchmarkAttentionForward(b *testing.B) {
	for _, heads := range []int{1, 4} {
		b.Run(fmt.Sprintf("heads=%d", heads), func(b *testing.B) {
			c, x := benchAttentionHeads(b, heads)
			c.Forward(x) // warm the workspace so the loop measures steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Forward(x)
			}
		})
	}
}

func BenchmarkAttentionBackward(b *testing.B) {
	c, x := benchAttention(b)
	out := c.Forward(x)
	g := out.Clone()
	c.Backward(g) // warm the workspace and grads
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Backward(g)
	}
}
