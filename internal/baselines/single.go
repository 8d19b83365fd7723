package baselines

import (
	"math/rand"

	"fedtrans/internal/aggregate"
	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
	"fedtrans/internal/nn"
	"fedtrans/internal/transform"
)

// singleModelConfig converts a baseline Config into an fl.Config with
// transformation and soft aggregation disabled — conventional single
// global model training, the special case of the FedTrans lifecycle noted
// in §3.
func singleModelConfig(cfg Config) fl.Config {
	fc := fl.DefaultConfig()
	fc.Rounds = cfg.Rounds
	fc.ClientsPerRound = cfg.ClientsPerRound
	fc.Local = cfg.Local
	fc.EvalEvery = cfg.EvalEvery
	fc.Seed = cfg.Seed
	fc.DisableTransform = true
	fc.DisableSoftAgg = true
	fc.ConvergePatience = 0
	fc.Transform = transform.DefaultConfig()
	fc.Soft = aggregate.DefaultSoftConfig()
	return fc
}

// RunFedAvg trains a single global model with plain FedAvg.
func RunFedAvg(cfg Config, ds *data.Dataset, trace *device.Trace, spec model.Spec) fl.Result {
	return fl.New(singleModelConfig(cfg), ds, trace, spec).Run()
}

// RunFedProx trains a single global model with the FedProx proximal term.
func RunFedProx(cfg Config, ds *data.Dataset, trace *device.Trace, spec model.Spec, mu float64) fl.Result {
	fc := singleModelConfig(cfg)
	fc.Local.ProxMu = mu
	return fl.New(fc, ds, trace, spec).Run()
}

// RunFedYogi trains a single global model with the FedYogi server
// optimizer.
func RunFedYogi(cfg Config, ds *data.Dataset, trace *device.Trace, spec model.Spec) fl.Result {
	fc := singleModelConfig(cfg)
	fc.ServerYogi = true
	return fl.New(fc, ds, trace, spec).Run()
}

// RunCentralized trains the spec on the pooled, shuffled union of all
// client data — the hypothetical cloud-ML upper bound of Figure 2 — and
// returns the mean per-client test accuracy plus total training MACs.
func RunCentralized(cfg Config, ds *data.Dataset, spec model.Spec, epochs int) (meanAcc float64, macs float64) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := spec.BuildScoped(rng, model.NewIDGen())
	x, y := ds.Centralized(cfg.Seed)
	n := x.Shape[0]
	opt := nn.NewSGD(cfg.Local.LR)
	batch := cfg.Local.BatchSize
	if batch <= 0 {
		batch = 10
	}
	if epochs <= 0 {
		epochs = 5
	}
	for e := 0; e < epochs; e++ {
		for off := 0; off+batch <= n; off += batch {
			idx := make([]int, batch)
			for i := range idx {
				idx[i] = off + i
			}
			bx, by := data.Batch(x, y, idx)
			m.TrainStep(bx, by, opt)
			macs += 3 * m.MACsPerSample() * float64(batch)
		}
	}
	accSum := 0.0
	for c := range ds.Clients {
		accSum += fl.EvaluateOn(m, &ds.Clients[c])
	}
	return accSum / float64(len(ds.Clients)), macs
}
