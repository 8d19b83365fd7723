package nn

import (
	"math"

	"fedtrans/internal/tensor"
)

// SoftmaxCrossEntropyInto computes the mean cross-entropy loss of logits
// (batch, classes) against integer labels and writes the loss gradient
// w.r.t. the logits into grad (same shape as logits, fully overwritten).
// grad may alias logits.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Tensor, labels []int) float64 {
	batch, classes := logits.Shape[0], logits.Shape[1]
	if batch != len(labels) {
		panic("nn: label/batch size mismatch")
	}
	tensor.SoftmaxInto(grad, logits)
	loss := 0.0
	inv := 1.0 / float64(batch)
	for i, y := range labels {
		p := float64(grad.Data[i*classes+y])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		grad.Data[i*classes+y] -= 1
	}
	grad.Scale(inv)
	return loss * inv
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	if len(labels) == 0 {
		return 0
	}
	correct := 0
	for i, y := range labels {
		if logits.ArgMaxRow(i) == y {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// MeanTokensCell reduces (batch, tokens, dim) to (batch, dim) by averaging
// over tokens. It is the attention-model analogue of global average
// pooling and is width-transparent.
type MeanTokensCell struct {
	inShape  []int
	ws       tensor.Workspace
	out, gin *tensor.Tensor
}

// NewMeanTokensCell returns a MeanTokensCell.
func NewMeanTokensCell() *MeanTokensCell { return &MeanTokensCell{} }

// Kind implements Cell.
func (c *MeanTokensCell) Kind() string { return "meantokens" }

// Forward implements Cell.
func (c *MeanTokensCell) Forward(x *tensor.Tensor) *tensor.Tensor {
	batch, t, d := x.Shape[0], x.Shape[1], x.Shape[2]
	c.inShape = append(c.inShape[:0], x.Shape...)
	out := c.ws.EnsureZero(&c.out, batch, d)
	inv := tensor.Float(1.0 / float64(t))
	for b := 0; b < batch; b++ {
		tensor.SumRowsScaled(out.Data[b*d:(b+1)*d], x.Data[b*t*d:(b+1)*t*d], d, inv)
	}
	return out
}

// Backward implements Cell.
func (c *MeanTokensCell) Backward(grad *tensor.Tensor) *tensor.Tensor {
	batch, t, d := c.inShape[0], c.inShape[1], c.inShape[2]
	gin := c.ws.Ensure(&c.gin, batch, t, d)
	inv := tensor.Float(1.0 / float64(t))
	for b := 0; b < batch; b++ {
		for i := 0; i < t; i++ {
			base := (b*t + i) * d
			for j := 0; j < d; j++ {
				gin.Data[base+j] = grad.Data[b*d+j] * inv
			}
		}
	}
	return gin
}

// ReleaseWorkspace implements WorkspaceHolder.
func (c *MeanTokensCell) ReleaseWorkspace() { c.ws.Release() }

// Params implements Cell.
func (c *MeanTokensCell) Params() []*tensor.Tensor { return nil }

// Grads implements Cell.
func (c *MeanTokensCell) Grads() []*tensor.Tensor { return nil }

// Clone implements Cell.
func (c *MeanTokensCell) Clone() Cell { return &MeanTokensCell{} }

// MACsPerSample implements Cell.
func (c *MeanTokensCell) MACsPerSample() float64 { return 0 }

// WidthTransparent implements the WidthTransparent marker.
func (c *MeanTokensCell) WidthTransparent() {}
