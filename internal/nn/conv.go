package nn

import (
	"math"
	"math/rand"

	"fedtrans/internal/tensor"
)

// Conv2DCell is a 2-D convolution (stride 1 or 2, "same" padding for odd
// kernels) followed by an optional ReLU. Inputs and outputs are rank-4
// tensors shaped (batch, channels, height, width). It corresponds to the
// paper's convolution Cell (Figure 4).
//
// Forward and Backward lower the convolution onto the shared GEMM
// kernels via im2col/col2im: each batch item's receptive fields are
// unrolled into a transposed (outH·outW × inCh·k·k) column matrix — one
// row per output position — so the forward pass is one A@Bᵀ product per
// item (contiguous dot products against the weights) and the backward
// pass is two: the weight gradient gB@col (A@B) and the column gradient
// gBᵀ@W (Aᵀ@B), with col2im scattering the latter back to input
// coordinates. Both backward products take the ReLU-masked gradient gB
// as A and skip each quad of four gradient values that are all ±0 —
// except in the weight-gradient product's 4-row tiles (rows below
// outCh&^3, columns below ck&^7), which at the avx2 and avx512 tiers
// skip nothing (gemm.go's header has the contract). The column matrix is
// built once per Forward and reused by Backward.
//
// The plumbing around the products changes no float operation from tier
// to tier. Per element, im2col is a copy; the bias+ReLU epilogue is one
// add (pre-activation first) and a select; the ReLU mask is a select;
// col2im, the bias-gradient sums and the pooling sums (rowSums) are one
// ascending sum per element or channel. At the avx512 tier im2col,
// col2im, the copies in and out of the plane, the pooling backward's
// broadcast and the two ReLU kernels run as conv_amd64.s calls in
// internal/tensor, held bit for bit to their Go bodies; rowSums runs
// four channels per pass, each still summed in order.
//
// Both im2col and col2im work on a zero-bordered copy of the item —
// (inCh, h+2·pad, w+2·pad), pad = k/2 — in which every receptive field
// lies whole, so an output position at the edge of the image is the same
// k×k window copy (or scatter-add) as one in the middle and the padding
// is never tested for. The plane is one workspace slot shared by the two
// directions. All scratch lives in a pooled workspace, so steady-state
// training steps allocate nothing. The historical 7-deep loop nest
// survives as NaiveForward/NaiveBackward — the parity-test and benchmark
// reference.
type Conv2DCell struct {
	W      *tensor.Tensor // (outCh, inCh, k, k)
	B      *tensor.Tensor // (outCh)
	GW     *tensor.Tensor
	GB     *tensor.Tensor
	Stride int
	ReLU   bool

	inH, inW int // set on first Forward; used for MACs estimation
	x        *tensor.Tensor
	pre      *tensor.Tensor

	ws               tensor.Workspace
	col, out, act    *tensor.Tensor // forward scratch
	gbuf, dcol, gin  *tensor.Tensor // backward scratch
	plane            *tensor.Tensor // zero-bordered item, both directions
	wView, gwView    *tensor.Tensor // (outCh, inCh·k·k) views of W/GW
	outView, colView *tensor.Tensor // per-item matrix views
	gView            *tensor.Tensor
}

// NewConv2DCell returns a convolution cell with Kaiming initialization.
func NewConv2DCell(inCh, outCh, k, stride int, relu bool, rng *rand.Rand) *Conv2DCell {
	if stride != 1 && stride != 2 {
		panic("nn: Conv2DCell stride must be 1 or 2")
	}
	c := &Conv2DCell{
		W:      tensor.New(outCh, inCh, k, k),
		B:      tensor.New(outCh),
		GW:     tensor.New(outCh, inCh, k, k),
		GB:     tensor.New(outCh),
		Stride: stride,
		ReLU:   relu,
	}
	fanIn := float64(inCh * k * k)
	c.W.RandNormal(rng, math.Sqrt(2.0/fanIn))
	return c
}

// Kind implements Cell.
func (c *Conv2DCell) Kind() string { return "conv2d" }

// InCh returns the input channel count.
func (c *Conv2DCell) InCh() int { return c.W.Shape[1] }

// OutCh returns the output channel count.
func (c *Conv2DCell) OutCh() int { return c.W.Shape[0] }

// K returns the kernel size.
func (c *Conv2DCell) K() int { return c.W.Shape[2] }

func (c *Conv2DCell) outSize(in int) int {
	// "same" padding: pad = k/2; out = ceil(in/stride).
	return (in + c.Stride - 1) / c.Stride
}

// Forward implements Cell for input (batch, inCh, H, W). It lowers the
// convolution onto GEMM via im2col; see the type comment.
func (c *Conv2DCell) Forward(x *tensor.Tensor) *tensor.Tensor {
	batch, inCh, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	c.inH, c.inW = h, w
	outCh, k := c.OutCh(), c.K()
	oh, ow := c.outSize(h), c.outSize(w)
	ck, cn := inCh*k*k, oh*ow
	// The column matrix is stored transposed — (cn × ck), one row per
	// output position; see the type comment.
	col := c.ws.Ensure(&c.col, batch, cn, ck)
	out := c.ws.Ensure(&c.out, batch, outCh, oh, ow)
	res := out
	if c.ReLU {
		res = c.ws.Ensure(&c.act, out.Shape...)
	}
	wView := setView(&c.wView, c.W.Data, outCh, ck)
	// Pooled buffers come back dirty, so the border is zeroed on every
	// call; the items then overwrite the interior only.
	pad := k / 2
	ph, pw := h+2*pad, w+2*pad
	plane := c.ws.EnsureZero(&c.plane, inCh, ph, pw)
	for b := 0; b < batch; b++ {
		colB := setView(&c.colView, col.Data[b*ck*cn:(b+1)*ck*cn], cn, ck)
		tensor.CopyInterior(plane.Data, x.Data[b*inCh*h*w:(b+1)*inCh*h*w], inCh, h, w, pad, true)
		tensor.Im2col(colB.Data, plane.Data, inCh, ph, pw, k, c.Stride, oh, ow)
		lo, hi := b*outCh*cn, (b+1)*outCh*cn
		outB := setView(&c.outView, out.Data[lo:hi], outCh, cn)
		tensor.MatMulTransBInto(outB, wView, colB)
		var actB []tensor.Float // nil without ReLU: the epilogue adds the bias only
		if c.ReLU {
			actB = res.Data[lo:hi]
		}
		tensor.AddChannelBiasRelu(actB, outB.Data, c.B.Data, cn)
	}
	c.x = x
	c.pre = out
	return res
}

// NaiveForward is the original 7-deep loop-nest convolution, kept as the
// float64 reference implementation for parity tests and benchmarks: the
// per-output reduction accumulates in float64 regardless of the backend
// element type, so it pins the float32 GEMM path against a
// higher-precision ground truth.
func (c *Conv2DCell) NaiveForward(x *tensor.Tensor) *tensor.Tensor {
	batch, inCh, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	c.inH, c.inW = h, w
	outCh, k, s := c.OutCh(), c.K(), c.Stride
	pad := k / 2
	oh, ow := c.outSize(h), c.outSize(w)
	out := tensor.New(batch, outCh, oh, ow)
	for b := 0; b < batch; b++ {
		for oc := 0; oc < outCh; oc++ {
			bias := float64(c.B.Data[oc])
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum := bias
					iy0 := oy*s - pad
					ix0 := ox*s - pad
					for ic := 0; ic < inCh; ic++ {
						xBase := ((b*inCh + ic) * h) * w
						wBase := ((oc*inCh + ic) * k) * k
						for ky := 0; ky < k; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= w {
									continue
								}
								sum += float64(x.Data[xBase+iy*w+ix]) * float64(c.W.Data[wBase+ky*k+kx])
							}
						}
					}
					out.Data[((b*outCh+oc)*oh+oy)*ow+ox] = tensor.Float(sum)
				}
			}
		}
	}
	c.x = x
	c.pre = out
	if !c.ReLU {
		return out
	}
	act := out.Clone()
	for i, v := range act.Data {
		if v < 0 {
			act.Data[i] = 0
		}
	}
	return act
}

// ensureGrads allocates the gradient tensors if a lazy Clone left them
// nil, sized to the current parameter shapes.
func (c *Conv2DCell) ensureGrads() {
	if c.GW == nil {
		c.GW = tensor.New(c.W.Shape...)
		c.GB = tensor.New(c.B.Shape...)
	}
}

// Backward implements Cell.
func (c *Conv2DCell) Backward(grad *tensor.Tensor) *tensor.Tensor { return c.backward(grad, true) }

// BackwardParams implements ParamBackwarder: Backward without the
// column-gradient product, its col2im scatter and their scratch.
func (c *Conv2DCell) BackwardParams(grad *tensor.Tensor) { c.backward(grad, false) }

// backward reuses the column matrix built by the matching Forward call:
// the bias gradient is each channel's ascending sum of gB, the weight
// gradient is one GEMM per batch item against the cached columns, and
// the input gradient — when asked for — is one GEMM into a
// column-gradient scratch followed by a col2im scatter. The GW product
// runs through a view of GW's buffer, which bypasses COW tracking, so
// grads are materialized (never shared) up front.
func (c *Conv2DCell) backward(grad *tensor.Tensor, needInput bool) *tensor.Tensor {
	c.ensureGrads()
	g := grad
	if c.ReLU {
		g = c.ws.Ensure(&c.gbuf, grad.Shape...)
		tensor.ReluMaskInto(g, grad, c.pre)
	}
	x := c.x
	batch, inCh, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outCh, k := c.OutCh(), c.K()
	oh, ow := g.Shape[2], g.Shape[3]
	ck, cn := inCh*k*k, oh*ow
	pad := k / 2
	ph, pw := h+2*pad, w+2*pad
	var gin, dcol, plane *tensor.Tensor
	if needInput {
		gin = c.ws.Ensure(&c.gin, batch, inCh, h, w)
		dcol = c.ws.Ensure(&c.dcol, cn, ck)
		plane = c.ws.Ensure(&c.plane, inCh, ph, pw)
	}
	wView := setView(&c.wView, c.W.Data, outCh, ck)
	gwView := setView(&c.gwView, c.GW.Data, outCh, ck)
	for b := 0; b < batch; b++ {
		gB := setView(&c.gView, g.Data[b*outCh*cn:(b+1)*outCh*cn], outCh, cn)
		rowSums(c.GB.Data, gB.Data, cn, 1, true)
		colB := setView(&c.colView, c.col.Data[b*ck*cn:(b+1)*ck*cn], cn, ck)
		tensor.MatMulAccInto(gwView, gB, colB)
		if !needInput {
			continue
		}
		tensor.MatMulTransAInto(dcol, gB, wView)
		plane.Zero()
		tensor.Col2im(plane.Data, dcol.Data, inCh, ph, pw, k, c.Stride, oh, ow)
		tensor.CopyInterior(plane.Data, gin.Data[b*inCh*h*w:(b+1)*inCh*h*w], inCh, h, w, pad, false)
	}
	return gin
}

// NaiveBackward is the original loop-nest backward pass, kept as the
// float64 reference implementation for parity tests and benchmarks: all
// gradient accumulation runs in float64 scratch and is narrowed once at
// the end. It must be paired with NaiveForward (which caches input and
// pre-activation).
func (c *Conv2DCell) NaiveBackward(grad *tensor.Tensor) *tensor.Tensor {
	c.ensureGrads()
	g := grad
	if c.ReLU {
		g = grad.Clone()
		for i, v := range c.pre.Data {
			if v <= 0 {
				g.Data[i] = 0
			}
		}
	}
	x := c.x
	batch, inCh, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outCh, k, s := c.OutCh(), c.K(), c.Stride
	pad := k / 2
	oh, ow := g.Shape[2], g.Shape[3]
	gin := tensor.New(batch, inCh, h, w)
	gw64 := make([]float64, c.GW.Len())
	gb64 := make([]float64, c.GB.Len())
	gin64 := make([]float64, gin.Len())
	for b := 0; b < batch; b++ {
		for oc := 0; oc < outCh; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gv := float64(g.Data[((b*outCh+oc)*oh+oy)*ow+ox])
					if gv == 0 {
						continue
					}
					gb64[oc] += gv
					iy0 := oy*s - pad
					ix0 := ox*s - pad
					for ic := 0; ic < inCh; ic++ {
						xBase := ((b*inCh + ic) * h) * w
						wBase := ((oc*inCh + ic) * k) * k
						for ky := 0; ky < k; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= w {
									continue
								}
								gw64[wBase+ky*k+kx] += gv * float64(x.Data[xBase+iy*w+ix])
								gin64[xBase+iy*w+ix] += gv * float64(c.W.Data[wBase+ky*k+kx])
							}
						}
					}
				}
			}
		}
	}
	for i, v := range gw64 {
		c.GW.Data[i] += tensor.Float(v)
	}
	for i, v := range gb64 {
		c.GB.Data[i] += tensor.Float(v)
	}
	for i, v := range gin64 {
		gin.Data[i] = tensor.Float(v)
	}
	return gin
}

// ReleaseWorkspace implements WorkspaceHolder.
func (c *Conv2DCell) ReleaseWorkspace() { c.ws.Release() }

// Params implements Cell.
func (c *Conv2DCell) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements Cell.
func (c *Conv2DCell) Grads() []*tensor.Tensor {
	c.ensureGrads()
	return []*tensor.Tensor{c.GW, c.GB}
}

// Clone implements Cell: weight buffers are shared copy-on-write,
// gradients materialize lazily, caches are dropped.
func (c *Conv2DCell) Clone() Cell {
	return &Conv2DCell{
		W: c.W.LazyClone(), B: c.B.LazyClone(),
		Stride: c.Stride, ReLU: c.ReLU,
		inH: c.inH, inW: c.inW,
	}
}

// SetSpatial records the expected input spatial size, used by
// MACsPerSample before the first Forward call.
func (c *Conv2DCell) SetSpatial(h, w int) { c.inH, c.inW = h, w }

// MACsPerSample implements Cell. It uses the most recently seen (or
// configured) spatial size.
func (c *Conv2DCell) MACsPerSample() float64 {
	h, w := c.inH, c.inW
	if h == 0 {
		h, w = 8, 8 // conservative default before first use
	}
	oh, ow := c.outSize(h), c.outSize(w)
	k := c.K()
	return float64(oh*ow) * float64(k*k) * float64(c.InCh()) * float64(c.OutCh())
}

// OutUnits implements OutputWidener (units = output channels).
func (c *Conv2DCell) OutUnits() int { return c.OutCh() }

// WidenOutput implements OutputWidener by duplicating output channels.
func (c *Conv2DCell) WidenOutput(mapping []int) {
	inCh, k := c.InCh(), c.K()
	newOut := len(mapping)
	w := tensor.New(newOut, inCh, k, k)
	b := tensor.New(newOut)
	sz := inCh * k * k
	for j, src := range mapping {
		copy(w.Data[j*sz:(j+1)*sz], c.W.Data[src*sz:(src+1)*sz])
		b.Data[j] = c.B.Data[src]
	}
	c.W.Release()
	c.B.Release()
	c.W, c.B = w, b
	c.GW, c.GB = nil, nil
}

// WidenInput implements InputWidener by duplicating input-channel slices
// scaled by 1/replica-count.
func (c *Conv2DCell) WidenInput(mapping []int, counts []int) {
	outCh, oldIn, k := c.OutCh(), c.InCh(), c.K()
	newIn := len(mapping)
	w := tensor.New(outCh, newIn, k, k)
	ksz := k * k
	for oc := 0; oc < outCh; oc++ {
		for j, src := range mapping {
			scale := tensor.Float(1.0 / float64(counts[src]))
			dst := ((oc*newIn + j) * k) * k
			from := ((oc*oldIn + src) * k) * k
			for i := 0; i < ksz; i++ {
				w.Data[dst+i] = c.W.Data[from+i] * scale
			}
		}
	}
	c.W.Release()
	c.W = w
	c.GW, c.GB = nil, nil
}

// IdentityLike implements IdentityInserter: a stride-1 conv whose kernels
// are centre-tap identities (channel i passes through unchanged). With
// ReLU it preserves the function because the predecessor output is
// non-negative.
func (c *Conv2DCell) IdentityLike() Cell {
	n := c.OutCh()
	k := c.K()
	if k%2 == 0 {
		k = 3
	}
	id := &Conv2DCell{
		W:      tensor.New(n, n, k, k),
		B:      tensor.New(n),
		GW:     tensor.New(n, n, k, k),
		GB:     tensor.New(n),
		Stride: 1,
		ReLU:   true,
		inH:    c.outSize(c.inH),
		inW:    c.outSize(c.inW),
	}
	mid := k / 2
	for i := 0; i < n; i++ {
		id.W.Data[((i*n+i)*k+mid)*k+mid] = 1
	}
	return id
}

// GlobalAvgPoolCell reduces (batch, C, H, W) to (batch, C) by averaging
// over the spatial axes. It has no parameters and is width-transparent:
// widening the preceding convolution's channels passes straight through to
// the following dense layer.
type GlobalAvgPoolCell struct {
	inShape  []int
	ws       tensor.Workspace
	out, gin *tensor.Tensor
}

// NewGlobalAvgPoolCell returns a GlobalAvgPoolCell.
func NewGlobalAvgPoolCell() *GlobalAvgPoolCell { return &GlobalAvgPoolCell{} }

// Kind implements Cell.
func (c *GlobalAvgPoolCell) Kind() string { return "gap" }

// Forward implements Cell.
func (c *GlobalAvgPoolCell) Forward(x *tensor.Tensor) *tensor.Tensor {
	batch, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	c.inShape = append(c.inShape[:0], x.Shape...)
	out := c.ws.Ensure(&c.out, batch, ch)
	rowSums(out.Data, x.Data, h*w, tensor.Float(1.0/float64(h*w)), false)
	return out
}

// Backward implements Cell.
func (c *GlobalAvgPoolCell) Backward(grad *tensor.Tensor) *tensor.Tensor {
	batch, ch, h, w := c.inShape[0], c.inShape[1], c.inShape[2], c.inShape[3]
	gin := c.ws.Ensure(&c.gin, batch, ch, h, w)
	tensor.FillRows(gin.Data, grad.Data[:batch*ch], h*w, tensor.Float(1.0/float64(h*w)))
	return gin
}

// ReleaseWorkspace implements WorkspaceHolder.
func (c *GlobalAvgPoolCell) ReleaseWorkspace() { c.ws.Release() }

// Params implements Cell.
func (c *GlobalAvgPoolCell) Params() []*tensor.Tensor { return nil }

// Grads implements Cell.
func (c *GlobalAvgPoolCell) Grads() []*tensor.Tensor { return nil }

// Clone implements Cell.
func (c *GlobalAvgPoolCell) Clone() Cell { return &GlobalAvgPoolCell{} }

// MACsPerSample implements Cell; pooling is additions only.
func (c *GlobalAvgPoolCell) MACsPerSample() float64 { return 0 }

// WidthTransparent implements the WidthTransparent marker.
func (c *GlobalAvgPoolCell) WidthTransparent() {}

// rowSums reduces each of the len(dst) rows of n elements in m to its
// sum, added in ascending order, times scale: dst[r] = s·scale, or
// dst[r] += s·scale when acc is set (scale 1 leaves s as it is). Four
// rows share a pass, so their four dependent chains of additions
// overlap; no row's order changes.
func rowSums(dst, m []tensor.Float, n int, scale tensor.Float, acc bool) {
	r := 0
	for ; r+4 <= len(dst); r += 4 {
		x0 := m[r*n:][:n]
		x1, x2, x3 := m[(r+1)*n:][:n], m[(r+2)*n:][:n], m[(r+3)*n:][:n]
		var s0, s1, s2, s3 tensor.Float
		for i := range x0 {
			s0 += x0[i]
			s1 += x1[i]
			s2 += x2[i]
			s3 += x3[i]
		}
		d := (*[4]tensor.Float)(dst[r:])
		if acc {
			d[0] += s0 * scale
			d[1] += s1 * scale
			d[2] += s2 * scale
			d[3] += s3 * scale
		} else {
			d[0], d[1], d[2], d[3] = s0*scale, s1*scale, s2*scale, s3*scale
		}
	}
	for ; r < len(dst); r++ {
		var s tensor.Float
		for _, v := range m[r*n:][:n] {
			s += v
		}
		if acc {
			dst[r] += s * scale
		} else {
			dst[r] = s * scale
		}
	}
}
