// Package model defines the transformable multi-cell model FedTrans trains:
// a stack of nn.Cells plus a classifier head, with MAC/parameter/byte
// accounting, model-level widen/deepen operations that preserve the
// network function, lineage tracking, and the architectural-similarity
// metric of §4.2.
package model

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"fedtrans/internal/nn"
	"fedtrans/internal/tensor"
)

func sqrtf(x float64) float64 { return math.Sqrt(x) }

// IDGen allocates model and cell IDs for one logical run. Every model
// built from the same generator (and everything derived from it) draws
// from the same scope, so independent runs with their own generators
// produce identical ID sequences no matter how they are scheduled
// across goroutines. The counters are atomic, making the shared
// process-wide scope safe under concurrency too.
type IDGen struct {
	model atomic.Int64
	cell  atomic.Int64
}

// NewIDGen returns a fresh ID scope starting at 1 for both models and
// cells.
func NewIDGen() *IDGen { return &IDGen{} }

func (g *IDGen) nextModelID() int  { return int(g.model.Add(1)) }
func (g *IDGen) nextCellID() int64 { return g.cell.Add(1) }

// Counters reports how many model and cell IDs the scope has minted so
// far (checkpointing).
func (g *IDGen) Counters() (modelIDs, cellIDs int64) {
	return g.model.Load(), g.cell.Load()
}

// SetCounters forces the scope's counters (checkpoint restore), so IDs
// minted after a resume continue exactly where the interrupted run
// stopped.
func (g *IDGen) SetCounters(modelIDs, cellIDs int64) {
	g.model.Store(modelIDs)
	g.cell.Store(cellIDs)
}

// globalIDs is the shared scope used by Build/ResetIDs and by models
// deserialized without a generator.
var globalIDs = NewIDGen()

// gen returns the model's ID scope, falling back to the shared one.
func (m *Model) gen() *IDGen {
	if m.ids == nil {
		return globalIDs
	}
	return m.ids
}

// IDScope returns the ID generator this model mints from (the shared
// process scope when the model was built unscoped). Checkpoint restore
// uses it to realign counters after reloading a suite.
func (m *Model) IDScope() *IDGen { return m.gen() }

// CellSlot wraps a Cell with identity and lineage metadata used by the
// similarity metric: AncestorID groups cells that share weights through
// transformation; InheritedFrac is the fraction of the cell's parameters
// inherited from its ancestor (1 for unchanged, #param(l')/#param(l) for
// widened, 0 for freshly inserted identity cells).
type CellSlot struct {
	Cell          nn.Cell
	ID            int64
	AncestorID    int64
	InheritedFrac float64
	// WidenedLast records whether the most recent transformation applied
	// to this cell was a widen, driving the paper's widen/deepen
	// alternation (Figure 5).
	WidenedLast bool
}

// Model is a stack of cells plus a dense classifier head. InputShape is
// the per-sample shape the flat feature vector is reshaped to before the
// first cell (e.g. [C,H,W] for convolutional stacks, [T,D] for attention
// stacks, [D] for dense stacks).
type Model struct {
	ID         int
	ParentID   int // -1 for the initial model
	BornRound  int
	Cells      []CellSlot
	Head       *nn.DenseCell
	InputShape []int
	Classes    int

	ws         tensor.Workspace
	lossGrad   *tensor.Tensor
	reshaped   *tensor.Tensor // cached header for the input reshape view
	ids        *IDGen         // ID scope this model allocates from
	paramCache []*tensor.Tensor
	cellOff    []int // paramCache[cellOff[i]:cellOff[i+1]] is cell i's, i == len(Cells) the head's
	gradCache  []*tensor.Tensor
	paramCount int64 // cached ParamCount; 0 = not computed yet
}

// NumCells returns the number of transformable cells.
func (m *Model) NumCells() int { return len(m.Cells) }

// Clone returns an independent copy of the model (same ID and lineage
// metadata). Weight buffers are shared copy-on-write with the receiver —
// the clone costs O(tensor headers), and a buffer is physically copied
// only when either side first writes it — so the round loop's
// clone-per-client pattern no longer scales memory traffic with
// participants. Gradients start logically zero and materialize at first
// use; caches and workspaces are never shared. Concurrent Clone calls on
// the same model are safe; writes race with clones exactly as they did
// under deep copying.
func (m *Model) Clone() *Model {
	c := &Model{
		ID: m.ID, ParentID: m.ParentID, BornRound: m.BornRound,
		Head:       m.Head.Clone().(*nn.DenseCell),
		InputShape: append([]int(nil), m.InputShape...),
		Classes:    m.Classes,
		ids:        m.ids,
	}
	c.Cells = make([]CellSlot, len(m.Cells))
	for i, s := range m.Cells {
		c.Cells[i] = CellSlot{
			Cell: s.Cell.Clone(), ID: s.ID, AncestorID: s.AncestorID,
			InheritedFrac: s.InheritedFrac, WidenedLast: s.WidenedLast,
		}
	}
	return c
}

// reshapeInput converts a flat (batch, features) tensor into the model's
// expected input rank using a cached view header (no allocation after
// the first call).
func (m *Model) reshapeInput(x *tensor.Tensor) *tensor.Tensor {
	if len(m.InputShape) <= 1 {
		return x
	}
	v := m.reshaped
	if v == nil {
		v = &tensor.Tensor{}
		m.reshaped = v
	}
	v.Shape = append(v.Shape[:0], x.Shape[0])
	v.Shape = append(v.Shape, m.InputShape...)
	n := 1
	for _, s := range v.Shape {
		n *= s
	}
	if n != len(x.Data) {
		panic(fmt.Sprintf("model: reshape %v -> %v element mismatch", x.Shape, v.Shape))
	}
	v.Data = x.Data
	return v
}

// Forward runs the full model on a flat (batch, features) input and
// returns class logits (batch, classes).
func (m *Model) Forward(x *tensor.Tensor) *tensor.Tensor {
	h := m.reshapeInput(x)
	for i := range m.Cells {
		h = m.Cells[i].Cell.Forward(h)
	}
	return m.Head.Forward(h)
}

// Backward propagates the logits gradient through head and cells,
// accumulating parameter gradients. Nothing reads the gradient with
// respect to the model input, so the first cell (the head, in a model
// with no cells) is asked for its parameter gradients only.
func (m *Model) Backward(gradLogits *tensor.Tensor) {
	if len(m.Cells) == 0 {
		nn.BackwardParams(m.Head, gradLogits)
		return
	}
	g := m.Head.Backward(gradLogits)
	for i := len(m.Cells) - 1; i > 0; i-- {
		g = m.Cells[i].Cell.Backward(g)
	}
	nn.BackwardParams(m.Cells[0].Cell, g)
}

// ZeroGrads zeroes every gradient tensor in the model. It works off the
// cached Grads slice so steady-state steps do not re-collect the
// per-cell gradient lists.
func (m *Model) ZeroGrads() {
	for _, g := range m.Grads() {
		g.Zero()
	}
}

// TrainStep performs one SGD step on a batch and returns the loss. The
// loss gradient lives in a pooled model workspace, so the whole step is
// allocation-free at a stable batch size.
func (m *Model) TrainStep(x *tensor.Tensor, y []int, opt *nn.SGD) float64 {
	m.ZeroGrads()
	logits := m.Forward(x)
	grad := m.ws.Ensure(&m.lossGrad, logits.Shape...)
	loss := nn.SoftmaxCrossEntropyInto(grad, logits, y)
	m.Backward(grad)
	opt.Step(m.Params(), m.Grads())
	return loss
}

// Evaluate returns accuracy and mean loss on a dataset given as a flat
// feature tensor and labels.
func (m *Model) Evaluate(x *tensor.Tensor, y []int) (acc, loss float64) {
	logits := m.Forward(x)
	scratch := m.ws.Ensure(&m.lossGrad, logits.Shape...)
	loss = nn.SoftmaxCrossEntropyInto(scratch, logits, y)
	return nn.Accuracy(logits, y), loss
}

// ReleaseWorkspaces returns every cell's (and the model's own) pooled
// scratch buffers to the shared tensor pool. The model remains usable —
// the next Forward re-acquires scratch — but callers that are done
// training a clone should release so the memory is recycled.
func (m *Model) ReleaseWorkspaces() {
	for i := range m.Cells {
		nn.ReleaseCell(m.Cells[i].Cell)
	}
	nn.ReleaseCell(m.Head)
	m.ws.Release()
}

// Release disposes of a model the caller is completely done with:
// workspaces go back to the shared pool and every parameter header drops
// its interest in a COW-shared buffer, so the model this one was cloned
// from regains exclusive ownership (and writes in place again) once all
// clones are released. Unlike ReleaseWorkspaces, the model must not be
// computed with afterwards — parameter Data is nilled so reuse fails
// loudly. Shape-derived accounting (ParamCount, Bytes, MACsPerSample)
// remains valid on a released model.
func (m *Model) Release() {
	m.ReleaseWorkspaces()
	for _, p := range m.Params() {
		p.Release()
	}
	m.invalidateParamCache()
}

// Params returns all trainable tensors (cells then head). The slice is
// cached — it is rebuilt after structural changes made through WidenCell
// or DeepenCell; code that swaps cell tensors directly must do so on a
// fresh Clone (whose cache is empty), as the baselines' submodel
// extraction does.
func (m *Model) Params() []*tensor.Tensor {
	if m.paramCache == nil {
		m.cellOff = make([]int, len(m.Cells)+2)
		for i := range m.Cells {
			m.paramCache = append(m.paramCache, m.Cells[i].Cell.Params()...)
			m.cellOff[i+1] = len(m.paramCache)
		}
		m.paramCache = append(m.paramCache, m.Head.Params()...)
		m.cellOff[len(m.Cells)+1] = len(m.paramCache)
	}
	return m.paramCache
}

// CellParams returns cell i's tensors as a slice of Params (same caching
// contract); i == len(Cells) selects the head.
func (m *Model) CellParams(i int) []*tensor.Tensor {
	return m.Params()[m.cellOff[i]:m.cellOff[i+1]:m.cellOff[i+1]]
}

// CellOf returns the index of the last cell descended from ancestor, or
// -1. Cells sharing weights through the transformation lineage share an
// AncestorID wherever deepen insertions moved them, so this is how Sim
// and soft aggregation match cells across two models.
func (m *Model) CellOf(ancestor int64) int {
	for i := len(m.Cells) - 1; i >= 0; i-- {
		if m.Cells[i].AncestorID == ancestor {
			return i
		}
	}
	return -1
}

// Grads returns gradient tensors aligned with Params (same caching
// contract).
func (m *Model) Grads() []*tensor.Tensor {
	if m.gradCache == nil {
		for i := range m.Cells {
			m.gradCache = append(m.gradCache, m.Cells[i].Cell.Grads()...)
		}
		m.gradCache = append(m.gradCache, m.Head.Grads()...)
	}
	return m.gradCache
}

// invalidateParamCache drops the cached Params/Grads slices and the
// parameter count after a structural transformation.
func (m *Model) invalidateParamCache() {
	m.paramCache, m.cellOff, m.gradCache = nil, nil, nil
	m.paramCount = 0
}

// InvalidateParamCache must be called by any code outside this package
// that swaps a cell's parameter or gradient tensors directly (e.g. the
// baselines' submodel extraction), so Params/Grads rebuild instead of
// returning stale pointers.
func (m *Model) InvalidateParamCache() { m.invalidateParamCache() }

// ParamCount returns the total number of scalar parameters. The count is
// cached (cleared on structural transformation) because the round loop's
// cost accounting asks for Bytes per participant; like Params, a first
// call must not race with concurrent callers — the runtime primes both
// caches before fanning out.
func (m *Model) ParamCount() int64 {
	if m.paramCount == 0 {
		var n int64
		for i := range m.Cells {
			n += nn.ParamCount(m.Cells[i].Cell)
		}
		m.paramCount = n + nn.ParamCount(m.Head)
	}
	return m.paramCount
}

// Bytes returns the serialized model size (float32 on the wire, matching
// typical FL deployments).
func (m *Model) Bytes() int64 { return m.ParamCount() * 4 }

// MACsPerSample returns the forward multiply-accumulate count for one
// sample.
func (m *Model) MACsPerSample() float64 {
	s := 0.0
	for i := range m.Cells {
		s += m.Cells[i].Cell.MACsPerSample()
	}
	return s + m.Head.MACsPerSample()
}

// SetWeights copies weights from src tensors into the model parameters.
// Shapes must match exactly.
func (m *Model) SetWeights(src []*tensor.Tensor) {
	dst := m.Params()
	if len(dst) != len(src) {
		panic(fmt.Sprintf("model: SetWeights arity mismatch %d != %d", len(dst), len(src)))
	}
	for i := range dst {
		if dst[i].Len() != src[i].Len() {
			panic(fmt.Sprintf("model: SetWeights size mismatch at %d", i))
		}
		dst[i].EnsureOwnedDiscard() // fully overwritten by the copy
		copy(dst[i].Data, src[i].Data)
	}
}

// ShareWeightsFrom re-aliases every parameter of m onto src's current
// buffers as copy-on-write sharers, reusing m's existing tensor headers
// instead of allocating new ones. m must be a structural clone of src
// (same parameter arity; shapes are re-adopted from src). This turns a
// snapshot whose parameters were Released back into a live COW snapshot
// of src's current version in O(headers) with zero allocations.
func (m *Model) ShareWeightsFrom(src *Model) {
	dst, s := m.Params(), src.Params()
	if len(dst) != len(s) {
		panic(fmt.Sprintf("model: ShareWeightsFrom arity mismatch %d != %d", len(dst), len(s)))
	}
	for i := range dst {
		dst[i].ShareFrom(s[i])
	}
}

// CopyWeights returns a copy-on-write snapshot of the parameter tensors:
// the returned headers alias the current buffers and keep their contents
// stable even if the model is written afterwards (the write detaches the
// model's side). Callers that mutate the snapshot through raw Data
// indexing must call EnsureOwned on the tensor first.
func (m *Model) CopyWeights() []*tensor.Tensor {
	ps := m.Params()
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.LazyClone()
	}
	return out
}

// CellDeltaActiveness computes per-cell activeness from a weight delta:
// given the previous round's weights (aligned with Params order) it treats
// (prev − current)/scale as the aggregate round gradient and returns
// ‖g_cell‖/‖w_cell‖ for each cell. This matches the paper's setting where
// the coordinator only sees aggregate round updates, not per-step
// gradients.
func (m *Model) CellDeltaActiveness(prev []*tensor.Tensor, scale float64) []float64 {
	if scale == 0 {
		scale = 1
	}
	out := make([]float64, len(m.Cells))
	for i := range m.Cells {
		gSq, wSq := 0.0, 0.0
		for k, p := range m.CellParams(i) {
			pv := prev[m.cellOff[i]+k]
			for j := range p.Data {
				d := float64(pv.Data[j]-p.Data[j]) / scale
				gSq += d * d
				wSq += float64(p.Data[j]) * float64(p.Data[j])
			}
		}
		if wSq > 0 {
			out[i] = sqrtf(gSq) / sqrtf(wSq)
		}
	}
	return out
}

// nextInputWidener scans forward from cell index i+1, skipping
// width-transparent cells, and returns the first cell that can absorb an
// input widening (or the head).
func (m *Model) nextInputWidener(i int) nn.InputWidener {
	for j := i + 1; j < len(m.Cells); j++ {
		c := m.Cells[j].Cell
		if _, transparent := c.(nn.WidthTransparent); transparent {
			continue
		}
		if iw, ok := c.(nn.InputWidener); ok {
			return iw
		}
		return nil
	}
	return m.Head
}

// CanWiden reports whether cell i can be widened in this model.
func (m *Model) CanWiden(i int) bool {
	c := m.Cells[i].Cell
	if _, ok := c.(nn.SelfWidener); ok {
		return true
	}
	if _, ok := c.(nn.OutputWidener); ok {
		return m.nextInputWidener(i) != nil
	}
	return false
}

// WidenCell widens cell i by the given factor using function-preserving
// Net2Wider weight duplication, compensating the next parameterized cell
// (or head). Lineage is updated: the widened cell keeps its ancestor ID
// with InheritedFrac multiplied by oldParams/newParams.
func (m *Model) WidenCell(i int, factor float64, rng *rand.Rand) {
	m.invalidateParamCache()
	slot := &m.Cells[i]
	if sw, ok := slot.Cell.(nn.SelfWidener); ok {
		if _, also := slot.Cell.(nn.OutputWidener); !also {
			before := nn.ParamCount(slot.Cell)
			sw.WidenSelf(factor, rng)
			after := nn.ParamCount(slot.Cell)
			slot.InheritedFrac *= float64(before) / float64(after)
			slot.WidenedLast = true
			return
		}
	}
	ow, ok := slot.Cell.(nn.OutputWidener)
	if !ok {
		panic(fmt.Sprintf("model: cell %d (%s) is not widenable", i, slot.Cell.Kind()))
	}
	next := m.nextInputWidener(i)
	if next == nil {
		panic(fmt.Sprintf("model: no input-widenable successor for cell %d", i))
	}
	oldN := ow.OutUnits()
	newN := int(float64(oldN)*factor + 0.5)
	if newN <= oldN {
		newN = oldN + 1
	}
	mapping, counts := nn.WidenMapping(oldN, newN, rng)
	before := nn.ParamCount(slot.Cell)
	ow.WidenOutput(mapping)
	next.WidenInput(mapping, counts)
	after := nn.ParamCount(slot.Cell)
	slot.InheritedFrac *= float64(before) / float64(after)
	slot.WidenedLast = true
}

// DeepenCell inserts an identity-initialized cell of the same kind right
// after cell i (the paper's deepen operation). The inserted cell gets a
// fresh ancestor ID and InheritedFrac 0.
func (m *Model) DeepenCell(i int) {
	ins, ok := m.Cells[i].Cell.(nn.IdentityInserter)
	if !ok {
		panic(fmt.Sprintf("model: cell %d (%s) cannot be deepened", i, m.Cells[i].Cell.Kind()))
	}
	m.invalidateParamCache()
	id := m.gen().nextCellID()
	slot := CellSlot{Cell: ins.IdentityLike(), ID: id, AncestorID: id, InheritedFrac: 0}
	m.Cells = append(m.Cells, CellSlot{})
	copy(m.Cells[i+2:], m.Cells[i+1:])
	m.Cells[i+1] = slot
	m.Cells[i].WidenedLast = false
}

// ArchString renders a compact architecture description such as
// "dense(64)->dense(64)->head(62)".
func (m *Model) ArchString() string {
	s := ""
	for i := range m.Cells {
		if i > 0 {
			s += "->"
		}
		switch c := m.Cells[i].Cell.(type) {
		case *nn.DenseCell:
			s += fmt.Sprintf("dense(%d)", c.OutDim())
		case *nn.Conv2DCell:
			s += fmt.Sprintf("conv(%dx%d,%d)", c.K(), c.K(), c.OutCh())
		case *nn.AttentionCell:
			if h := c.Heads(); h > 1 {
				s += fmt.Sprintf("attn(d=%d,ff=%d,heads=%d)", c.Dim(), c.FF(), h)
			} else {
				s += fmt.Sprintf("attn(d=%d,ff=%d)", c.Dim(), c.FF())
			}
		case *nn.ResidualDenseCell:
			s += fmt.Sprintf("res(d=%d,h=%d)", c.Dim(), c.Hidden())
		default:
			s += c.Kind()
		}
	}
	return s + fmt.Sprintf("->head(%d)", m.Classes)
}
