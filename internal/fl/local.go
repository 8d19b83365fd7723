// Package fl implements the federated-learning runtime: client local
// training, the FedTrans coordinator of Algorithm 1, and the round-level
// accounting (training MACs, network bytes, storage, round completion
// time) that the evaluation reports.
package fl

import (
	"math/rand"

	"fedtrans/internal/data"
	"fedtrans/internal/model"
	"fedtrans/internal/nn"
	"fedtrans/internal/selection"
	"fedtrans/internal/tensor"
)

// LocalConfig parameterizes client local training (§5.1: 20 local steps,
// batch size 10, learning rate 0.05).
type LocalConfig struct {
	Steps     int
	BatchSize int
	LR        float64
	// ProxMu enables the FedProx proximal term anchored at the downloaded
	// weights.
	ProxMu float64
}

// DefaultLocalConfig returns the paper's local-training defaults.
func DefaultLocalConfig() LocalConfig {
	return LocalConfig{Steps: 20, BatchSize: 10, LR: 0.05}
}

// LocalResult is what a client returns to the coordinator after local
// training: updated weights, the mean training loss, and the sample count.
// As the appendix notes, the coordinator can derive the round gradient
// from (old weights − new weights), so no separate gradient upload is
// simulated.
type LocalResult struct {
	Weights []*tensor.Tensor
	Loss    float64
	Samples int
}

// TrainLocal lazily clones the given model (weights shared copy-on-write
// until the first SGD step writes them), runs local SGD on the client's
// data, and returns the result. The input model is not mutated, and the
// clone is fully released before returning; the uploaded weights are a
// COW snapshot of the trained parameters, so no copy is made for the
// upload either.
func TrainLocal(m *model.Model, cl *data.Client, cfg LocalConfig, rng *rand.Rand) LocalResult {
	local := m.Clone()
	defer local.Release()
	opt := nn.NewSGD(cfg.LR)
	if cfg.ProxMu > 0 {
		opt.ProxMu = cfg.ProxMu
		for _, p := range local.Params() {
			opt.SetProxAnchor(p, p.Data)
		}
	}
	n := len(cl.TrainY)
	if n == 0 {
		// Nothing to train on: return the downloaded weights with
		// Samples 0 (zero FedAvg weight) instead of pushing an empty
		// batch through TrainStep.
		return LocalResult{Weights: local.CopyWeights(), Loss: 0, Samples: 0}
	}
	lossSum := 0.0
	steps := cfg.Steps
	if steps < 1 {
		steps = 1
	}
	for s := 0; s < steps; s++ {
		bs := cfg.BatchSize
		if bs > n {
			bs = n
		}
		idx := make([]int, bs)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		bx, by := data.Batch(cl.TrainX, cl.TrainY, idx)
		lossSum += local.TrainStep(bx, by, opt)
	}
	return LocalResult{
		Weights: local.CopyWeights(),
		Loss:    lossSum / float64(steps),
		Samples: n,
	}
}

// EvaluateOn returns the model's accuracy on the client's test split.
func EvaluateOn(m *model.Model, cl *data.Client) float64 {
	acc, _ := m.Evaluate(cl.TestX, cl.TestY)
	return acc
}

// SelectClients samples n distinct client indices from [0, total).
func SelectClients(total, n int, rng *rand.Rand) []int {
	return selection.Random{}.Select(0, total, n, rng)
}
