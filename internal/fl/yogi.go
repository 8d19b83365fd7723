package fl

import (
	"fedtrans/internal/model"
	"fedtrans/internal/nn"
	"fedtrans/internal/tensor"
)

// yogiOpt adapts the nn.Yogi server optimizer to whole models: after
// FedAvg has overwritten the model with the aggregated client weights, the
// pseudo-gradient prev − aggregated is fed to Yogi and the server weights
// are updated adaptively from prev, at server learning rate 0.02.
type yogiOpt struct {
	y *nn.Yogi
}

func newYogiOpt() *yogiOpt { return &yogiOpt{y: nn.NewYogi(0.02)} }

func (o *yogiOpt) apply(m *model.Model, prev []*tensor.Tensor) {
	params := m.Params()
	pg := make([][]float64, len(params))
	for i, p := range params {
		g := make([]float64, p.Len())
		for j := range g {
			g[j] = float64(prev[i].Data[j] - p.Data[j])
		}
		pg[i] = g
		// Restore the server weights; Yogi steps from them. The params
		// may be COW-shared with live clones or snapshots.
		p.EnsureOwned()
		copy(p.Data, prev[i].Data)
	}
	o.y.Apply(m.ID, params, pg)
}
