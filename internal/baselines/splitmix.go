package baselines

import (
	"math/rand"

	"fedtrans/internal/aggregate"
	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
	"fedtrans/internal/nn"
	"fedtrans/internal/tensor"
)

// SplitMix splits the (largest) model's width into numBase narrow "base"
// models. Every client trains as many base models as its capacity budget
// allows each round (rotating through the pool for balance), and inference
// ensembles the logits of the client's affordable bases — the on-demand
// width customization of Hong et al. (ICLR 2022).
type SplitMix struct {
	cfg   Config
	ds    *data.Dataset
	trace *device.Trace
	bases []*model.Model
	rng   *rand.Rand
	next  int                        // rotation cursor for balanced base training
	avg   *aggregate.StreamingFedAvg // per-base sample-weighted FedAvg, finalized every round
}

// NewSplitMix builds numBase width-1/numBase base models from the largest
// spec.
func NewSplitMix(cfg Config, ds *data.Dataset, trace *device.Trace, largest model.Spec, numBase int) *SplitMix {
	if numBase < 2 {
		numBase = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &SplitMix{cfg: cfg, ds: ds, trace: trace, rng: rng, avg: aggregate.NewStreaming()}
	atom := largest.Scaled(1 / float64(numBase))
	ids := model.NewIDGen()
	for i := 0; i < numBase; i++ {
		s.bases = append(s.bases, atom.BuildScoped(rng, ids))
	}
	return s
}

// budgetFor returns how many base models the capacity affords (≥ 1).
func (s *SplitMix) budgetFor(capacity float64) int {
	per := s.bases[0].MACsPerSample()
	n := int(capacity / per)
	if n < 1 {
		n = 1
	}
	if n > len(s.bases) {
		n = len(s.bases)
	}
	return n
}

// Run executes SplitMix training.
func (s *SplitMix) Run() fl.Result { return run(s.cfg, s.ds, s.trace, s.rng, s) }

func (s *SplitMix) suite() []*model.Model { return s.bases }

// round trains, per selected client, the next budget-many bases of the
// rotation, serially on the shared rng, and streams each update into
// the base's FedAvg accumulator; the bases take their averages at the
// round boundary, so every client of a round trains the round's
// starting weights.
func (s *SplitMix) round(_ int, selected []int, charge func(client int, trained ...*model.Model)) {
	for _, c := range selected {
		trained := make([]*model.Model, s.budgetFor(s.trace.Devices[c].CapacityMACs))
		for k := range trained {
			b := s.bases[s.next%len(s.bases)]
			s.next++
			lr := fl.TrainLocal(b, &s.ds.Clients[c], s.cfg.Local, s.rng)
			u := aggregate.Update{ModelID: b.ID, Weights: lr.Weights, Samples: lr.Samples, Loss: lr.Loss}
			if err := s.avg.Add(b, u); err != nil {
				panic(err) // a base's own clone cannot change shape
			}
			trained[k] = b
		}
		charge(c, trained...)
	}
	for _, b := range s.bases {
		s.avg.Finalize(b)
	}
}

// evaluate ensembles each client's affordable bases by averaging softmax
// probabilities.
func (s *SplitMix) evaluate() []float64 {
	accs := make([]float64, len(s.ds.Clients))
	for c := range s.ds.Clients {
		cl := &s.ds.Clients[c]
		budget := s.budgetFor(s.trace.Devices[c].CapacityMACs)
		var sum *tensor.Tensor
		for k := 0; k < budget; k++ {
			probs := tensor.Softmax(s.bases[k].Forward(cl.TestX))
			if sum == nil {
				sum = probs
			} else {
				sum.AddScaled(probs, 1)
			}
		}
		accs[c] = nn.Accuracy(sum, cl.TestY)
	}
	return accs
}
