package layers

import (
	"fmt"
	"math"
	"runtime"

	"fedtrans/internal/data"
	"fedtrans/internal/model"
	"fedtrans/internal/nn"
	"fedtrans/internal/tensor"
)

const (
	trainRows = 10 // rows of a local-training batch (Options.BatchSize default)
	serveRows = 16 // rows the inference dispatcher coalesces from two 8-row frames
)

func filled(shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = tensor.Float(i%17)/17 - 0.5
	}
	return t
}

// widestMatrix is the largest weight of m viewed as a (K, N) matrix:
// the product that dominates its forward pass.
func widestMatrix(m *model.Model) (k, n int) {
	for _, p := range m.Params() {
		if len(p.Shape) < 2 {
			continue
		}
		if rows, cols := p.Shape[0], len(p.Data)/p.Shape[0]; rows*cols > k*n {
			k, n = rows, cols
		}
	}
	return k, n
}

// attentionGeometry is (tokens, dim, heads) of the workload's attention
// cells, or of the vit profile at 4 heads when it has none.
func attentionGeometry(w *world) (tokens, dim, heads int) {
	for i := range w.big.Cells {
		if c, ok := w.big.Cells[i].Cell.(*nn.AttentionCell); ok {
			return w.big.InputShape[0], c.Dim(), c.Heads()
		}
	}
	shape := data.Generate(dataConfig("vit", 2, w.cfg.Seed)).InputShape
	return shape[0], shape[1], 4
}

func tensorStages(w *world) []Stage {
	k, n := widestMatrix(w.big)
	gflops := func(flops int) func(float64) float64 {
		return func(ns float64) float64 { return float64(flops) / ns }
	}

	x10, g10, wm := filled(trainRows, k), filled(trainRows, n), filled(k, n)
	y10, dw, dx := tensor.New(trainRows, n), tensor.New(k, n), tensor.New(trainRows, k)
	x16, y16 := filled(serveRows, k), tensor.New(serveRows, n)
	a64, b64, c64 := filled(64, 64), filled(64, 64), tensor.New(64, 64)

	t, d, h := attentionGeometry(w)
	bh, dh := trainRows*h, d/h
	q, kk, v := filled(bh, t, dh), filled(bh, t, dh), filled(bh, t, dh)
	scores, attn, ctx := tensor.New(bh, t, t), tensor.New(bh, t, t), tensor.New(bh, t, dh)
	tensor.BatchedMatMulTransBInto(scores, q, kk)
	alpha := 1 / math.Sqrt(float64(dh))

	return []Stage{
		{Name: "tensor.gemm_b10_gflops", Unit: "GFLOP/s", Value: gflops(3 * 2 * trainRows * k * n), Op: func() {
			tensor.MatMulInto(y10, x10, wm)       // forward
			tensor.MatMulTransAInto(dw, x10, g10) // weight gradient
			tensor.MatMulTransBInto(dx, g10, wm)  // input gradient
		}},
		{Name: "tensor.gemm_b16_gflops", Unit: "GFLOP/s", Value: gflops(2 * serveRows * k * n), Op: func() {
			tensor.MatMulInto(y16, x16, wm)
		}},
		{Name: "tensor.gemm_64_gflops", Unit: "GFLOP/s", Value: gflops(2 * 64 * 64 * 64), Op: func() {
			tensor.MatMulInto(c64, a64, b64)
		}},
		{Name: "tensor.bgemm_attn_gflops", Unit: "GFLOP/s", Value: gflops(2 * 2 * bh * t * t * dh), Op: func() {
			tensor.BatchedMatMulTransBInto(scores, q, kk) // QKᵀ
			tensor.BatchedMatMulInto(ctx, attn, v)        // attention × V
		}},
		{Name: "tensor.softmax_ns_per_row", Unit: "ns", Value: func(ns float64) float64 { return ns / float64(bh*t) }, Op: func() {
			tensor.BatchedSoftmaxInto(attn, scores, alpha)
		}},
	}
}

// tap records what a cell receives during one training step, so the
// cell can be replayed alone on the inputs it sees inside its model.
type tap struct {
	nn.Cell
	x, grad *tensor.Tensor
}

func (t *tap) Forward(x *tensor.Tensor) *tensor.Tensor {
	t.x = x.Clone()
	return t.Cell.Forward(x)
}

func (t *tap) Backward(g *tensor.Tensor) *tensor.Tensor {
	t.grad = g.Clone()
	return t.Cell.Backward(g)
}

// familyModel is the workload's largest model when it is of the family,
// and otherwise a fixed model of that family as the suites at the
// defining commit grow it, with a dataset of matching geometry.
func familyModel(w *world, family string) (*model.Model, *data.Dataset) {
	if w.big.SpecLike().Family == family {
		return w.big.Clone(), w.ds
	}
	profile, hidden, heads := "femnist", []int{32, 64, 64}, 0
	switch family {
	case "conv":
		profile, hidden = "cifar10", []int{12, 24}
	case "attention":
		profile, hidden, heads = "vit", []int{16, 32}, 4
	}
	ds := data.Generate(dataConfig(profile, 2, w.cfg.Seed))
	spec := initialSpec(profile, ds)
	spec.Hidden, spec.Heads = hidden, heads
	return spec.BuildScoped(w.rng, model.NewIDGen()), ds
}

// firstBatch is the first rows samples of client 0's training shard.
func firstBatch(ds *data.Dataset, rows int) (*tensor.Tensor, []int) {
	var cur data.ClientCursor
	cl := ds.Fetch(&cur, 0)
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = i % len(cl.TrainY)
	}
	return data.Batch(cl.TrainX, cl.TrainY, idx)
}

// tapWidest runs one training step of m with a tap on its widest cell
// of the given kind and returns the cell with its recorded input and
// output gradient.
func tapWidest(m *model.Model, ds *data.Dataset, kind string) (*tap, error) {
	best := -1
	for i := range m.Cells {
		c := m.Cells[i].Cell
		if c.Kind() == kind && (best < 0 || nn.ParamCount(c) > nn.ParamCount(m.Cells[best].Cell)) {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("layers: no %s cell in %s", kind, m.ArchString())
	}
	t := &tap{Cell: m.Cells[best].Cell}
	m.Cells[best].Cell = t
	x, y := firstBatch(ds, trainRows)
	m.TrainStep(x, y, nn.NewSGD(0.05))
	m.Cells[best].Cell = t.Cell
	return t, nil
}

// cellStages times Forward and zero-gradients-plus-Backward of a tapped
// cell. Backward reads what the last Forward cached, as in a real step.
func cellStages(t *tap, fwd, bwd string) []Stage {
	return []Stage{
		{Name: fwd, Unit: "us", Value: Us, Op: func() { t.Cell.Forward(t.x) }},
		{Name: bwd, Unit: "us", Value: Us, Op: func() {
			nn.ZeroGrads(t.Cell)
			t.Cell.Backward(t.grad)
		}},
	}
}

func nnStages(w *world) ([]Stage, error) {
	var stages []Stage

	convModel, convData := familyModel(w, "conv")
	conv, err := tapWidest(convModel, convData, "conv2d")
	if err != nil {
		return nil, err
	}
	stages = append(stages, cellStages(conv, "nn.conv_fwd_us", "nn.conv_bwd_us")...)

	attnModel, attnData := familyModel(w, "attention")
	attn, err := tapWidest(attnModel, attnData, "attention")
	if err != nil {
		return nil, err
	}
	stages = append(stages, cellStages(attn, "nn.attn_fwd_us", "nn.attn_bwd_us")...)
	// The same cell geometry at one head: the ratio to attn_fwd_us is
	// what the head split and merge cost.
	ac := attn.Cell.(*nn.AttentionCell)
	oneHead := nn.NewAttentionCellHeads(ac.Dim(), ac.FF(), attn.x.Shape[1], 1, w.rng)
	stages = append(stages, Stage{Name: "nn.attn_h1_fwd_us", Unit: "us", Value: Us, Op: func() { oneHead.Forward(attn.x) }})

	denseModel, denseData := familyModel(w, "dense")
	dense, err := tapWidest(denseModel, denseData, "dense")
	if err != nil {
		return nil, err
	}
	stages = append(stages, cellStages(dense, "nn.dense_fwd_us", "nn.dense_bwd_us")...)

	// Loss and optimizer on the model of a typical update.
	m := w.unit.Clone()
	x, y := firstBatch(w.ds, w.batch)
	opt := nn.NewSGD(w.cfg.LR)
	m.TrainStep(x, y, opt)
	logits := m.Forward(x).Clone()
	grad := tensor.New(logits.Shape...)
	stages = append(stages,
		Stage{Name: "nn.xent_us", Unit: "us", Value: Us, Op: func() { nn.SoftmaxCrossEntropyInto(grad, logits, y) }},
		Stage{Name: "nn.sgd_step_us", Unit: "us", Value: Us, Op: func() { opt.Step(m.Params(), m.Grads()) }},
	)
	return stages, nil
}

func modelStages(w *world) []Stage {
	m := w.unit.Clone()
	x, y := firstBatch(w.ds, w.batch)
	opt := nn.NewSGD(w.cfg.LR)
	blob, _ := w.unit.MarshalBinary()
	widen := 0
	for i := range m.Cells {
		if m.CanWiden(i) {
			widen = i
		}
	}
	return []Stage{
		{Name: "model.train_step_us", Unit: "us", Value: Us, Op: func() { m.TrainStep(x, y, opt) }},
		{Name: "model.clone_us", Unit: "us", Value: Us, PerUpdate: b2f(w.cfg.Networked), Op: func() { w.unit.Clone() }},
		{Name: "model.clone_allocs", Unit: "count", Measure: func() (float64, error) {
			const clones = 100
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < clones; i++ {
				w.unit.Clone()
			}
			runtime.ReadMemStats(&m1)
			return float64(m1.Mallocs-m0.Mallocs) / clones, nil
		}},
		{Name: "model.marshal_us", Unit: "us", Value: Us, Op: func() { w.unit.MarshalBinary() }},
		{Name: "model.unmarshal_us", Unit: "us", Value: Us, Op: func() { model.UnmarshalModelScoped(blob, model.NewIDGen()) }},
		// Derive (a clone with a new ID) then widen: what one transformation
		// pays per selected cell.
		{Name: "model.widen_us", Unit: "us", Value: Us, Op: func() { w.unit.Derive(1).WidenCell(widen, 2, w.rng) }},
	}
}
