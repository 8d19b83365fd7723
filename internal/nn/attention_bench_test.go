package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"fedtrans/internal/tensor"
)

// The attention benchmarks run two ViT-style cell shapes: "cell" (batch
// 8, 16 tokens, model dim 64, feed-forward 128), the shape PERF.md's
// history quotes attention numbers at, whose heads are 64 and 16 wide;
// and "vit" (batch 10, 8 tokens, model dim 8, feed-forward 8), the
// shape the vit profile's sessions train, whose heads are 8 and 2 wide
// — at 4 heads the narrow-head block kernels. Both passes must stay at
// 0 allocs/op (TestAttentionVitShapeAllocs pins it): all scratch is
// pooled workspace memory and the per-head products work in place on
// the projections.
type attnShape struct {
	name                    string
	batch, tokens, d, ff, h int
}

var attnBenchShapes = []attnShape{
	{"cell", 8, 16, 64, 128, 1},
	{"cell", 8, 16, 64, 128, 4},
	{"vit", 10, 8, 8, 8, 1},
	{"vit", 10, 8, 8, 8, 4},
}

func newBenchAttention(s attnShape) (*AttentionCell, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(42))
	c := NewAttentionCellHeads(s.d, s.ff, s.tokens, s.h, rng)
	x := tensor.New(s.batch, s.tokens, s.d)
	x.RandNormal(rng, 1)
	return c, x
}

// The forward benchmark sweeps the head count: heads=1 is the
// single-head cell, heads=4 runs four times the (item, head) blocks over
// narrower slices — the multi-head cost profile.
func BenchmarkAttentionForward(b *testing.B) {
	for _, s := range attnBenchShapes {
		b.Run(fmt.Sprintf("%s/heads=%d", s.name, s.h), func(b *testing.B) {
			c, x := newBenchAttention(s)
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
	for _, s := range attnBenchShapes {
		if s.name == "cell" && s.h != 1 {
			continue
		}
		b.Run(fmt.Sprintf("%s/heads=%d", s.name, s.h), func(b *testing.B) {
			c, x := newBenchAttention(s)
			out := c.Forward(x)
			g := out.Clone()
			c.Backward(g) // warm the workspace and grads
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Backward(g)
			}
		})
	}
}

// TestAttentionVitShapeAllocs pins a forward and backward pass at the
// vit shape, at one and four heads, to zero allocations once the
// workspace is warm.
func TestAttentionVitShapeAllocs(t *testing.T) {
	for _, s := range attnBenchShapes {
		if s.name != "vit" {
			continue
		}
		c, x := newBenchAttention(s)
		g := c.Forward(x).Clone()
		c.Backward(g)
		if n := testing.AllocsPerRun(20, func() {
			c.Forward(x)
			c.Backward(g)
		}); n != 0 {
			t.Errorf("vit shape, %d heads: %v allocs per forward + backward, want 0", s.h, n)
		}
	}
}
