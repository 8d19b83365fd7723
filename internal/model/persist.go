package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"fedtrans/internal/codec"
	"fedtrans/internal/nn"
	"fedtrans/internal/tensor"
	"fedtrans/internal/wire"
)

// persistHeader is the JSON architecture header that precedes the weight
// blob in a serialized model. Lineage metadata (ancestor IDs, inherited
// fractions) is deliberately not persisted: a loaded model is a fresh
// architecture root, matching how a deployed model leaves the training
// suite.
type persistHeader struct {
	Version int        `json:"version"`
	Input   []int      `json:"input"`
	Classes int        `json:"classes"`
	Tokens  int        `json:"tokens,omitempty"` // attention sequence length
	Cells   []cellMeta `json:"cells"`
}

type cellMeta struct {
	Kind   string `json:"kind"`
	Stride int    `json:"stride,omitempty"` // conv2d only
	Heads  int    `json:"heads,omitempty"`  // attention only; 0 = 1 head
}

// paramsPerKind maps cell kinds to their parameter-tensor counts in
// Params() order.
var paramsPerKind = map[string]int{
	"dense":      2,
	"conv2d":     2,
	"attention":  8,
	"residual":   4,
	"gap":        0,
	"meantokens": 0,
}

// ErrCorruptModel reports an unreadable serialized model.
var ErrCorruptModel = errors.New("model: corrupt serialized model")

// maxInputValues is the most input values a loadable model takes per
// sample: 21× the largest profile's 3×8×8, and small enough that one
// sample's attention scores (tokens²) stay within 64 MiB.
const maxInputValues = 1 << 12

var persistErrs = wire.Errs{Truncated: ErrCorruptModel, Corrupt: ErrCorruptModel}

// MarshalBinary serializes the model: a length-prefixed JSON architecture
// header followed by the codec weight blob (cells in order, then head).
func (m *Model) MarshalBinary() ([]byte, error) {
	h := persistHeader{
		Version: 1,
		Input:   append([]int(nil), m.InputShape...),
		Classes: m.Classes,
	}
	for i := range m.Cells {
		cm := cellMeta{Kind: m.Cells[i].Cell.Kind()}
		switch c := m.Cells[i].Cell.(type) {
		case *nn.Conv2DCell:
			cm.Stride = c.Stride
		case *nn.AttentionCell:
			if len(m.InputShape) == 2 {
				h.Tokens = m.InputShape[0]
			}
			if c.Heads() > 1 {
				cm.Heads = c.Heads()
			}
		}
		if _, ok := paramsPerKind[cm.Kind]; !ok {
			return nil, fmt.Errorf("model: cannot serialize cell kind %q", cm.Kind)
		}
		h.Cells = append(h.Cells, cm)
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	params := m.Params()
	e := wire.Enc{B: make([]byte, 0, 4+len(hdr)+codec.EncodedSize(params))}
	e.U32(uint32(len(hdr)))
	e.Raw(hdr)
	return codec.AppendEncode(e.B, params), nil
}

// UnmarshalModelScoped reconstructs a model serialized by MarshalBinary,
// minting its ID (and any IDs of cells later derived from it) from the
// given per-run IDGen scope, so loading a model inside one run cannot
// perturb the ID sequences of concurrent runs. The loaded model computes
// exactly the same function (the float32 wire format carries backend
// precision losslessly) and starts a fresh lineage.
func UnmarshalModelScoped(b []byte, gen *IDGen) (*Model, error) {
	d := wire.NewDec(b, &persistErrs)
	hdr := d.Take(d.Count(1))
	if len(hdr) == 0 {
		return nil, ErrCorruptModel
	}
	var h persistHeader
	if err := json.Unmarshal(hdr, &h); err != nil {
		return nil, fmt.Errorf("model: bad header: %w", err)
	}
	if h.Version != 1 {
		return nil, fmt.Errorf("model: unsupported version %d", h.Version)
	}
	weights, err := codec.Decode(d.Rest())
	if err != nil {
		return nil, fmt.Errorf("model: bad weights: %w", err)
	}
	want := 2 // head
	for _, cm := range h.Cells {
		n, ok := paramsPerKind[cm.Kind]
		if !ok {
			return nil, fmt.Errorf("model: unknown cell kind %q", cm.Kind)
		}
		want += n
	}
	if len(weights) != want {
		return nil, fmt.Errorf("%w: %d weight tensors, want %d", ErrCorruptModel, len(weights), want)
	}

	m := &Model{
		ID:         gen.nextModelID(),
		ParentID:   -1,
		InputShape: append([]int(nil), h.Input...),
		Classes:    h.Classes,
		ids:        gen,
	}
	rng := rand.New(rand.NewSource(1)) // placeholder init; overwritten below
	idx := 0
	take := func(n int) []*tensor.Tensor {
		out := weights[idx : idx+n]
		idx += n
		return out
	}
	// Header and weights come from outside the process, and Forward
	// indexes by them unchecked: every cell must take the per-sample
	// activation shape cur that the cell before it emits — the input
	// shape for the first cell — and the head must map the last width to
	// Classes logits, or the blob that decodes here panics at its first
	// Forward.
	cur := h.Input
	if len(cur) == 0 || h.Classes < 1 {
		return nil, fmt.Errorf("%w: input %v, %d classes", ErrCorruptModel, h.Input, h.Classes)
	}
	// No weight bounds a conv stack's H×W or an attention stack's token
	// count, so the input's product is held to maxInputValues, checked
	// factor by factor so that it cannot overflow.
	values := 1
	for _, n := range cur {
		if n < 1 || n > maxInputValues/values {
			return nil, fmt.Errorf("%w: input %v is not 1 to %d values a sample", ErrCorruptModel, h.Input, maxInputValues)
		}
		values *= n
	}
	mat := func(t *tensor.Tensor, rows, cols int) bool {
		return t.Rank() == 2 && t.Shape[0] == rows && t.Shape[1] == cols
	}
	vec := func(t *tensor.Tensor, n int) bool { return t.Rank() == 1 && t.Shape[0] == n }
	for ci, cm := range h.Cells {
		var cell nn.Cell // stays nil when the cell does not take cur
		switch cm.Kind {
		case "dense":
			ws := take(2)
			w, b := ws[0], ws[1]
			if len(cur) == 1 && w.Rank() == 2 && w.Shape[0] == cur[0] && vec(b, w.Shape[1]) {
				d := nn.NewDenseCell(w.Shape[0], w.Shape[1], true, rng)
				d.W, d.B = w, b
				d.GW, d.GB = tensor.New(w.Shape...), tensor.New(b.Shape...)
				cell, cur = d, []int{w.Shape[1]}
			}
		case "conv2d":
			ws := take(2)
			w, b := ws[0], ws[1]
			stride := cm.Stride
			if stride == 0 {
				stride = 1
			}
			// Besides chaining on the channel count: a stride the cell does
			// not implement, a kernel K() would misreport (non-square) or
			// "same" padding cannot centre (even), or a bias that is not
			// one scalar per output channel is corrupt.
			if len(cur) == 3 && w.Rank() == 4 && w.Shape[1] == cur[0] && (stride == 1 || stride == 2) &&
				w.Shape[2] == w.Shape[3] && w.Shape[2]%2 == 1 && vec(b, w.Shape[0]) {
				c := &nn.Conv2DCell{
					W: w, B: b,
					GW: tensor.New(w.Shape...), GB: tensor.New(b.Shape...),
					Stride: stride, ReLU: true,
				}
				// "same" padding downsamples by ceil(size/stride) for any
				// stride, so MACs accounting is exact right after load.
				c.SetSpatial(cur[1], cur[2])
				cell, cur = c, []int{w.Shape[0], (cur[1] + stride - 1) / stride, (cur[2] + stride - 1) / stride}
			}
		case "attention":
			ws := take(8)
			heads := cm.Heads
			if heads < 1 {
				heads = 1 // pre-multi-head blobs carry no heads field
			}
			// The fresh cell below is sized from the token width and W1's
			// columns: hold all eight tensors to those two numbers.
			if len(cur) == 2 && ws[4].Rank() == 2 {
				dim, ff := cur[1], ws[4].Shape[1]
				if dim%heads == 0 && mat(ws[0], dim, dim) && mat(ws[1], dim, dim) && mat(ws[2], dim, dim) && mat(ws[3], dim, dim) &&
					mat(ws[4], dim, ff) && vec(ws[5], ff) && mat(ws[6], ff, dim) && vec(ws[7], dim) {
					a := nn.NewAttentionCellHeads(dim, ff, cur[0], heads, rng)
					a.Wq, a.Wk, a.Wv, a.Wo = ws[0], ws[1], ws[2], ws[3]
					a.W1, a.B1, a.W2, a.B2 = ws[4], ws[5], ws[6], ws[7]
					cell = a.Clone() // Clone re-allocates gradient buffers
				}
			}
		case "residual":
			ws := take(4)
			if len(cur) == 1 && ws[0].Rank() == 2 {
				dim, hidden := cur[0], ws[0].Shape[1]
				if mat(ws[0], dim, hidden) && vec(ws[1], hidden) && mat(ws[2], hidden, dim) && vec(ws[3], dim) {
					r := nn.NewResidualDenseCell(dim, hidden, rng)
					r.W1, r.B1, r.W2, r.B2 = ws[0], ws[1], ws[2], ws[3]
					cell = r.Clone()
				}
			}
		case "gap":
			if len(cur) == 3 {
				cell, cur = nn.NewGlobalAvgPoolCell(), cur[:1]
			}
		case "meantokens":
			if len(cur) == 2 {
				cell, cur = nn.NewMeanTokensCell(), cur[1:]
			}
		}
		if cell == nil {
			return nil, fmt.Errorf("%w: %s cell %d is malformed or does not take a %v activation", ErrCorruptModel, cm.Kind, ci, cur)
		}
		m.appendCell(cell)
	}
	hw := take(2)
	if len(cur) != 1 || !mat(hw[0], cur[0], h.Classes) || !vec(hw[1], h.Classes) {
		return nil, fmt.Errorf("%w: head %v does not map a %v activation to %d classes", ErrCorruptModel, hw[0].Shape, cur, h.Classes)
	}
	head := nn.NewDenseCell(hw[0].Shape[0], hw[0].Shape[1], false, rng)
	head.W, head.B = hw[0], hw[1]
	head.GW, head.GB = tensor.New(hw[0].Shape...), tensor.New(hw[1].Shape...)
	m.Head = head
	return m, nil
}
