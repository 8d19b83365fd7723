// Package cluster implements Auxo-style client clustering (Liu et al.,
// SoCC 2023 — the clustering-based heterogeneity mitigation the paper's
// related work discusses): clients are grouped by the similarity of their
// model updates, and each cluster co-trains its own model, so clients
// with similar data distributions aggregate together.
//
// Signatures are privacy-compatible: only the weight deltas the server
// already receives are used, randomly projected to a low dimension before
// clustering (cosine k-means).
package cluster

import (
	"math"
	"math/rand"

	"fedtrans/internal/aggregate"
	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/metrics"
	"fedtrans/internal/model"
	"fedtrans/internal/xrand"
)

// Config parameterizes clustered training.
type Config struct {
	// K is the number of clusters (default 3).
	K int
	// ProbeRounds is the number of FedAvg warm-up rounds used to collect
	// update signatures before clustering (default 5).
	ProbeRounds int
	// Rounds is the post-clustering training budget (default 40).
	Rounds int
	// ClientsPerRound is sampled per cluster-round across all clusters.
	ClientsPerRound int
	// Local configures client training.
	Local fl.LocalConfig
	// Seed drives everything.
	Seed int64
}

const (
	// signatureDim is the random-projection dimensionality of an update
	// signature.
	signatureDim = 32
	// kmeansIters bounds Lloyd iterations.
	kmeansIters = 20
)

// DefaultConfig returns reproduction-scale defaults.
func DefaultConfig() Config {
	return Config{
		K:               3,
		ProbeRounds:     5,
		Rounds:          40,
		ClientsPerRound: 10,
		Local:           fl.DefaultLocalConfig(),
		Seed:            1,
	}
}

// Result summarizes a clustered training run.
type Result struct {
	MeanAcc    float64
	ClientAcc  []float64
	Assignment []int // cluster index per client
	Sizes      []int // cluster sizes
	Costs      metrics.Costs
}

// Runtime executes clustered federated training.
type Runtime struct {
	cfg   Config
	ds    *data.Dataset
	trace *device.Trace
	spec  model.Spec
	rng   *rand.Rand
}

// New builds a clustered runtime. Start cfg from DefaultConfig: every
// field is used as given.
func New(cfg Config, ds *data.Dataset, trace *device.Trace, spec model.Spec) *Runtime {
	return &Runtime{cfg: cfg, ds: ds, trace: trace, spec: spec,
		rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Signatures collects one normalized, randomly projected update signature
// per client by training each client once on the probe model.
func (rt *Runtime) Signatures(probe *model.Model) [][]float64 {
	cfg := rt.cfg
	base := probe.CopyWeights()
	total := 0
	for _, t := range base {
		total += t.Len()
	}
	// Fixed random projection: total -> signatureDim.
	prng := rand.New(rand.NewSource(cfg.Seed + 999))
	proj := make([][]float64, signatureDim)
	for i := range proj {
		row := make([]float64, total)
		for j := range row {
			row[j] = prng.NormFloat64() / math.Sqrt(float64(signatureDim))
		}
		proj[i] = row
	}
	sigs := make([][]float64, len(rt.ds.Clients))
	for c := range rt.ds.Clients {
		acc := make([]float64, signatureDim)
		for r := 0; r < cfg.ProbeRounds; r++ {
			crng := rand.New(xrand.New(cfg.Seed + int64(c)*100_003 + int64(r)))
			lr := fl.TrainLocal(probe, &rt.ds.Clients[c], cfg.Local, crng)
			// Delta flattened then projected.
			off := 0
			for ti, t := range lr.Weights {
				for j := range t.Data {
					d := float64(t.Data[j] - base[ti].Data[j])
					for k := 0; k < signatureDim; k++ {
						acc[k] += proj[k][off+j] * d
					}
				}
				off += t.Len()
			}
		}
		normalize(acc)
		sigs[c] = acc
	}
	return sigs
}

func normalize(v []float64) {
	n := 0.0
	for _, x := range v {
		n += x * x
	}
	n = math.Sqrt(n)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

// KMeans clusters unit-norm signatures with cosine distance (k-means on
// the sphere). Returns per-point assignments.
func KMeans(sigs [][]float64, k, iters int, rng *rand.Rand) []int {
	n := len(sigs)
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	dim := len(sigs[0])
	// k-means++ style init: first random, then farthest-point.
	centers := make([][]float64, 0, k)
	first := rng.Intn(n)
	centers = append(centers, append([]float64(nil), sigs[first]...))
	for len(centers) < k {
		worst, worstDist := 0, -1.0
		for i, s := range sigs {
			d := math.Inf(1)
			for _, c := range centers {
				if dd := cosDist(s, c); dd < d {
					d = dd
				}
			}
			if d > worstDist {
				worst, worstDist = i, d
			}
		}
		centers = append(centers, append([]float64(nil), sigs[worst]...))
	}
	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		for i, s := range sigs {
			best, bestD := 0, math.Inf(1)
			for ci, c := range centers {
				if d := cosDist(s, c); d < bestD {
					best, bestD = ci, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centers.
		for ci := range centers {
			sum := make([]float64, dim)
			cnt := 0
			for i, a := range assign {
				if a != ci {
					continue
				}
				cnt++
				for j := range sum {
					sum[j] += sigs[i][j]
				}
			}
			if cnt > 0 {
				normalize(sum)
				centers[ci] = sum
			}
		}
		if !changed {
			break
		}
	}
	return assign
}

func cosDist(a, b []float64) float64 {
	dot := 0.0
	for i := range a {
		dot += a[i] * b[i]
	}
	return 1 - dot
}

// Run executes probe → cluster → per-cluster FedAvg training and returns
// per-client accuracies on their cluster's model.
func (rt *Runtime) Run() Result {
	cfg := rt.cfg
	res := Result{}
	srng := rand.New(rand.NewSource(cfg.Seed))
	probe := rt.spec.BuildScoped(srng, model.NewIDGen())

	// Probe phase: a few FedAvg rounds to give signatures signal.
	for r := 0; r < cfg.ProbeRounds; r++ {
		rt.fedAvgRound(probe, r, &res)
	}
	sigs := rt.Signatures(probe)
	res.Assignment = KMeans(sigs, cfg.K, kmeansIters, rt.rng)
	res.Sizes = make([]int, cfg.K)
	for _, a := range res.Assignment {
		res.Sizes[a]++
	}

	// Per-cluster models seeded from the probe.
	models := make([]*model.Model, cfg.K)
	for i := range models {
		models[i] = probe.Clone()
	}
	members := make([][]int, cfg.K)
	for c, a := range res.Assignment {
		members[a] = append(members[a], c)
	}
	for r := 0; r < cfg.Rounds; r++ {
		for ci, m := range models {
			if len(members[ci]) == 0 {
				continue
			}
			// Sample participants proportional to cluster share.
			quota := cfg.ClientsPerRound * len(members[ci]) / len(rt.ds.Clients)
			if quota < 1 {
				quota = 1
			}
			rt.clusterRound(m, members[ci], quota, r, &res)
		}
	}

	res.ClientAcc = make([]float64, len(rt.ds.Clients))
	for c := range rt.ds.Clients {
		res.ClientAcc[c] = fl.EvaluateOn(models[res.Assignment[c]], &rt.ds.Clients[c])
	}
	res.MeanAcc = metrics.Mean(res.ClientAcc)
	return res
}

func (rt *Runtime) fedAvgRound(m *model.Model, round int, res *Result) {
	cfg := rt.cfg
	selected := fl.SelectClients(len(rt.ds.Clients), cfg.ClientsPerRound, rt.rng)
	rt.trainAndAverage(m, selected, round, res)
}

func (rt *Runtime) clusterRound(m *model.Model, members []int, quota, round int, res *Result) {
	if quota > len(members) {
		quota = len(members)
	}
	selected := xrand.PermPrefix(rt.rng, len(members), quota)
	for i, j := range selected {
		selected[i] = members[j]
	}
	rt.trainAndAverage(m, selected, round, res)
}

// trainAndAverage trains the selected clients on m, each on a private
// stream seeded by (round, client), and replaces m's weights with the
// sample-weighted mean of their updates.
func (rt *Runtime) trainAndAverage(m *model.Model, selected []int, round int, res *Result) {
	cfg := rt.cfg
	mean := aggregate.NewMaskedMean(m.Params())
	for _, c := range selected {
		crng := rand.New(xrand.New(cfg.Seed + int64(round)*1_000_003 + int64(c)*7919))
		lr := fl.TrainLocal(m, &rt.ds.Clients[c], cfg.Local, crng)
		w := float64(lr.Samples)
		if w <= 0 {
			w = 1
		}
		mean.Add(lr.Weights, w)
		res.Costs.AddTraining(m.MACsPerSample(), cfg.Local.Steps, cfg.Local.BatchSize)
		res.Costs.AddTransfer(m.Bytes())
	}
	mean.Write()
}
