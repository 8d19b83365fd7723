// Package fl implements the federated-learning runtime: client local
// training, the FedTrans coordinator of Algorithm 1, and the round-level
// accounting (training MACs, network bytes, storage, round completion
// time) that the evaluation reports.
package fl

import (
	"math/rand"
	"sort"

	"fedtrans/internal/data"
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
	"fedtrans/internal/xrand"
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

// TrainLocal runs the coordinator's local-SGD loop (localSession.train)
// on a lazy clone of the given model (weights shared copy-on-write until
// the first SGD step writes them), drawing batches from the caller's rng,
// and returns the result. The input model is not mutated, and the clone
// is fully released before returning; the uploaded weights are a COW
// snapshot of the trained parameters, so no copy is made for the upload
// either.
func TrainLocal(m *model.Model, cl *data.Client, cfg LocalConfig, rng *rand.Rand) LocalResult {
	s := newLocalSession(m)
	defer s.m.Release()
	loss, samples := s.train(cl, cfg, rng)
	return LocalResult{Weights: s.m.CopyWeights(), Loss: loss, Samples: samples}
}

// EvaluateOn returns the model's accuracy on the client's test split.
func EvaluateOn(m *model.Model, cl *data.Client) float64 {
	acc, _ := m.Evaluate(cl.TestX, cl.TestY)
	return acc
}

// SelectClients samples n distinct client indices from [0, total),
// uniformly without replacement: the first n entries of rng.Perm(total),
// drawn in O(n) memory. It draws nothing when n covers the population.
func SelectClients(total, n int, rng *rand.Rand) []int {
	if n >= total {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return xrand.PermPrefix(rng, total, n)
}

// selectFree samples n of the clients in [0, total) that are not in busy
// (ascending, distinct): the clients SelectClients(total−len(busy), n)
// picks by index from the ascending list of free clients, from the same
// draws, without listing them. Rank r maps to the r-th free client,
// r + #{j : busy[j] − j ≤ r}; busy[j] − j counts the free clients below
// busy[j] and never decreases, so the count is a binary search. Memory is
// O(n) whatever total is; the draws are PermPrefix's, one per free
// client, and the mapping adds O(n·log len(busy)).
func selectFree(total int, busy []int, n int, rng *rand.Rand) []int {
	out := SelectClients(total-len(busy), n, rng)
	for i, r := range out {
		out[i] = r + sort.Search(len(busy), func(j int) bool { return busy[j]-j > r })
	}
	return out
}
