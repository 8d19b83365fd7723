// Package data generates the synthetic federated datasets used throughout
// this reproduction. Real FEMNIST / CIFAR-10 / Speech Commands / OpenImage
// downloads are unavailable offline, so each profile is replaced by a
// synthetic classification task engineered to reproduce the properties the
// paper's evaluation depends on:
//
//   - non-IID label distributions via per-client Dirichlet(h) skew — the
//     same mechanism the paper itself uses for its heterogeneity study
//     (Figure 13);
//   - per-client input shift (client-specific per-feature gain and offset
//     jitter, mimicking sensor/writer variation);
//   - per-client task complexity: a client's classes are spread over
//     1+complexity cluster modes, so clients with more modes need larger
//     models while clients with few samples and few modes are best served
//     by small models — reproducing the "no one-size-fits-all" behaviour
//     of Figure 1b;
//   - log-normal per-client sample counts.
//
// Populations come in two representations sharing one synthesis routine:
// Generate materializes every client up front, while GenerateLazy keeps
// only the shared prototype bank (O(classes×modes), independent of the
// population size) and synthesizes clients on demand from
// (Seed, clientID). The two are bit-identical for the same Config.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"fedtrans/internal/par"
	"fedtrans/internal/tensor"
	"fedtrans/internal/xrand"
)

// Client holds one client's local train/test split.
type Client struct {
	TrainX *tensor.Tensor // (n, featureDim)
	TrainY []int
	TestX  *tensor.Tensor
	TestY  []int
	// Complexity is the number of extra cluster modes per class in this
	// client's data (0 = simplest).
	Complexity int
}

// Dataset is a federated dataset: a set of clients plus task metadata.
// Materialized datasets carry every client in Clients; generative ones
// carry a Generator instead and synthesize clients through Fetch.
type Dataset struct {
	Clients []Client
	// Gen synthesizes clients on demand when non-nil (generative mode);
	// Clients is nil and the population size is Population.
	Gen *Generator
	// Population is the generative population size (Gen != nil).
	Population int
	Classes    int
	FeatureDim int
	// InputShape is the per-sample shape models should reshape features
	// to ([D], [C,H,W] or [T,D]).
	InputShape []int
	Profile    string
}

// Len is the population size in either representation.
func (d *Dataset) Len() int {
	if d.Gen != nil {
		return d.Population
	}
	return len(d.Clients)
}

// Fetch returns client k. On a materialized dataset it points into
// Clients and cur may be nil. On a generative dataset the client is
// synthesized into cur's recycled buffers from a full re-seed of the
// cursor's RNG: the returned pointer is invalidated by the cursor's next
// fetch, and a cursor must not be shared across goroutines.
func (d *Dataset) Fetch(cur *ClientCursor, k int) *Client {
	if d.Gen != nil {
		return d.Gen.Synth(cur, k)
	}
	return &d.Clients[k]
}

// FetchTrain is Fetch for a caller that reads only TrainX, TrainY and
// Complexity, as local training does. On a generative dataset synthesis
// stops after the train split, whose draws come first, so those fields
// equal Fetch's; the test split is left empty (zero rows). On a
// materialized dataset it returns the whole client, as Fetch does.
func (d *Dataset) FetchTrain(cur *ClientCursor, k int) *Client {
	if d.Gen != nil {
		return d.Gen.synth(cur, k, false)
	}
	return &d.Clients[k]
}

// Config parameterizes synthetic dataset generation.
type Config struct {
	// Profile selects task geometry: "femnist", "cifar10", "speech",
	// "openimage", "vit" or "scale".
	Profile string
	// Clients is the number of clients (scaled down from the paper's
	// 100–14477 for CPU execution).
	Clients int
	// Heterogeneity is the Dirichlet concentration h; lower values give
	// more heterogeneous label distributions (paper Figure 13). Default 1.
	Heterogeneity float64
	// MinSamples/MaxSamples bound per-client training set sizes
	// (log-uniform). Defaults 24/96.
	MinSamples, MaxSamples int
	// TestSamples is the per-client test set size. Default 24.
	TestSamples int
	// Seed drives all sampling.
	Seed int64
}

const (
	// maxComplexity is the largest per-client complexity level: a client
	// spreads its classes over at most 1+maxComplexity modes.
	maxComplexity = 3
	// noiseStd is the within-cluster noise.
	noiseStd = 0.45

	// maxSamples bounds MinSamples, MaxSamples and TestSamples, and
	// maxValues the feature values of a materialized dataset (2²⁸
	// float32, 1 GiB): the ceilings Check holds a Config to.
	maxSamples = 1 << 12
	maxValues  = 1 << 28
)

type profileGeom struct {
	classes    int
	featureDim int
	inputShape []int
}

func geometry(profile string) (profileGeom, error) {
	switch profile {
	case "femnist":
		return profileGeom{classes: 16, featureDim: 64, inputShape: []int{64}}, nil
	case "cifar10":
		return profileGeom{classes: 10, featureDim: 3 * 8 * 8, inputShape: []int{3, 8, 8}}, nil
	case "speech":
		return profileGeom{classes: 12, featureDim: 1 * 12 * 12, inputShape: []int{1, 12, 12}}, nil
	case "openimage":
		return profileGeom{classes: 20, featureDim: 3 * 8 * 8, inputShape: []int{3, 8, 8}}, nil
	case "vit":
		return profileGeom{classes: 16, featureDim: 64, inputShape: []int{8, 8}}, nil
	case "scale":
		// Massive-round stress geometry: a deliberately small task so
		// thousands of clients per round exercise the coordinator's
		// aggregation pipeline instead of the compute kernels.
		return profileGeom{classes: 8, featureDim: 32, inputShape: []int{32}}, nil
	}
	return profileGeom{}, fmt.Errorf("data: Profile %q is not one of femnist, cifar10, speech, openimage, vit, scale", profile)
}

// normalized fills the Config's zero fields with their defaults.
func (cfg Config) normalized() Config {
	if cfg.Clients <= 0 {
		cfg.Clients = 50
	}
	if cfg.Heterogeneity <= 0 {
		cfg.Heterogeneity = 1
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 24
	}
	if cfg.MaxSamples < cfg.MinSamples {
		cfg.MaxSamples = cfg.MinSamples * 4
	}
	if cfg.TestSamples <= 0 {
		cfg.TestSamples = 24
	}
	return cfg
}

// Check reports whether Generate (lazy false) or GenerateLazy (lazy true)
// builds cfg within bounded memory: a known profile, Clients and
// Heterogeneity not negative, each sample count in [0, maxSamples], and —
// for a materialized dataset — at most maxValues feature values in all.
// A Config that arrives from outside the process must pass it first:
// Generate panics on an unknown profile. Check builds nothing: it
// returns the geometry the datasets of cfg share (Classes, FeatureDim,
// InputShape, Profile) as a Dataset without clients.
func (cfg Config) Check(lazy bool) (*Dataset, error) {
	g, err := geometry(cfg.Profile)
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.Clients < 0 || !(cfg.Heterogeneity >= 0):
		return nil, fmt.Errorf("data: Clients %d or Heterogeneity %v is negative", cfg.Clients, cfg.Heterogeneity)
	case min(cfg.MinSamples, cfg.MaxSamples, cfg.TestSamples) < 0 || max(cfg.MinSamples, cfg.MaxSamples, cfg.TestSamples) > maxSamples:
		return nil, fmt.Errorf("data: MinSamples, MaxSamples, TestSamples %d, %d, %d not all in [0, %d]",
			cfg.MinSamples, cfg.MaxSamples, cfg.TestSamples, maxSamples)
	}
	n := cfg.normalized()
	if perClient := (n.MaxSamples + n.TestSamples) * g.featureDim; !lazy && n.Clients > maxValues/perClient {
		return nil, fmt.Errorf("data: %d materialized Clients of up to %d feature values each exceed %d in all", n.Clients, perClient, maxValues)
	}
	return g.metadata(cfg.Profile), nil
}

// Generator holds the shared, population-independent synthesis state:
// the normalized Config plus the global prototype bank. Client k's
// entire shard is a pure function of (cfg.Seed, k), so a Generator
// serves any population size with O(classes×modes) memory.
type Generator struct {
	cfg         Config
	geom        profileGeom
	protos      [][]float64
	maxModes    int
	imageShaped bool
}

// ClientCursor is a reusable synthesis buffer for generative datasets.
// Synth re-seeds its source in place and recycles its client tensors and
// per-client scratch slices, so steady-state fetching allocates
// nothing. One cursor per goroutine.
type ClientCursor struct {
	Client                    Client
	src                       *xrand.Source
	scales, biases, labelDist []float64
	// norms holds the normals drawn in one call: the client transform's
	// 2·featureDim, then each sample row's featureDim.
	norms []float64
}

// NewGenerator normalizes cfg and builds the shared prototype bank.
// Setup cost depends only on the task geometry, never on cfg.Clients.
// It panics on an unknown profile (see Config.Check).
func NewGenerator(cfg Config) *Generator {
	cfg = cfg.normalized()
	g, err := geometry(cfg.Profile)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Global mode bank: prototypes for every (class, mode) pair, shared
	// across clients so federated averaging is meaningful.
	//
	// Image-shaped profiles (rank-3 input) get *texture* prototypes:
	// a class-specific 2x2 micro-pattern tiled across the image, so that
	// convolution filters + global pooling genuinely carry the class
	// signal (and per-sample phase shifts reward translation-invariant
	// models). Flat profiles get unit-norm Gaussian cluster prototypes.
	maxModes := maxComplexity + 1
	protos := make([][]float64, g.classes*maxModes)
	// Prototype norm scales with sqrt(D) so per-dimension separation vs.
	// the within-cluster noise stays constant across profiles.
	targetNorm := 0.4 * math.Sqrt(float64(g.featureDim))
	imageShaped := len(g.inputShape) == 3
	for i := range protos {
		p := make([]float64, g.featureDim)
		if imageShaped {
			ch, h, w := g.inputShape[0], g.inputShape[1], g.inputShape[2]
			// 2x2 micro-pattern per channel, tiled.
			tile := make([]float64, ch*4)
			for j := range tile {
				tile[j] = rng.NormFloat64()
			}
			for c := 0; c < ch; c++ {
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						p[(c*h+y)*w+x] = tile[c*4+(y%2)*2+(x%2)]
					}
				}
			}
		} else {
			for j := range p {
				p[j] = rng.NormFloat64()
			}
		}
		n := 0.0
		for _, v := range p {
			n += v * v
		}
		n = math.Sqrt(n)
		for j := range p {
			p[j] = p[j] / n * targetNorm
		}
		protos[i] = p
	}
	return &Generator{
		cfg: cfg, geom: g, protos: protos,
		maxModes: maxModes, imageShaped: imageShaped,
	}
}

// Synth synthesizes client k into cur and returns &cur.Client. The
// result is bit-identical to ds.Clients[k] of the materialized dataset
// Generate builds for the same Config: both paths run this routine.
func (g *Generator) Synth(cur *ClientCursor, k int) *Client { return g.synth(cur, k, true) }

// synth is Synth, stopping after the train split when test is false.
func (g *Generator) synth(cur *ClientCursor, k int, test bool) *Client {
	if cur.src == nil {
		cur.src = xrand.New(0)
	}
	src := cur.src
	// A full xrand re-seed: the stream equals a fresh
	// rand.New(rand.NewSource(seed)), and Source's draws equal
	// rand.Rand's of the same name (xrand.TestReseedInPlace,
	// TestNormFloat64sMatchesMathRand), so a shard is the one math/rand
	// would synthesize. It reads past the point where deriving the
	// register lazily would cost more (see package xrand).
	src.SeedFull(g.cfg.Seed + int64(k)*7919 + 1)
	complexity := src.Intn(maxComplexity + 1)
	d := g.geom.featureDim
	cur.norms = resize(cur.norms, 2*d)
	cur.scales, cur.biases = clientTransformInto(cur.scales, cur.biases, cur.norms, src)
	cur.labelDist = dirichletInto(cur.labelDist, g.geom.classes, g.cfg.Heterogeneity, src)
	nTrain := logUniformInt(g.cfg.MinSamples, g.cfg.MaxSamples, src)
	sp := sampleParams{
		geom: g.geom, protos: g.protos, maxModes: g.maxModes, complexity: complexity,
		labelDist: cur.labelDist, scales: cur.scales, biases: cur.biases,
		norms: cur.norms[:d], noise: noiseStd, imageShaped: g.imageShaped,
	}
	cl := &cur.Client
	if cl.TrainX == nil {
		cl.TrainX = &tensor.Tensor{}
	}
	if cl.TestX == nil {
		cl.TestX = &tensor.Tensor{}
	}
	cl.TrainY = sampleSetInto(cl.TrainX, cl.TrainY, nTrain, sp, src)
	if test {
		cl.TestY = sampleSetInto(cl.TestX, cl.TestY, g.cfg.TestSamples, sp, src)
	} else {
		cl.TestX.Data = cl.TestX.Data[:0]
		cl.TestX.Shape = append(cl.TestX.Shape[:0], 0, g.geom.featureDim)
		cl.TestY = cl.TestY[:0]
	}
	cl.Complexity = complexity
	return cl
}

// Generate builds a synthetic federated dataset with every client
// materialized. Clients are synthesized in parallel (par.ForN): client
// k's shard is a pure function of (Seed, k), each one is drawn into a
// fresh cursor that its slot then owns, and the generator is only read,
// so the dataset is the same at every GOMAXPROCS.
func Generate(cfg Config) *Dataset {
	gen := NewGenerator(cfg)
	ds := gen.geom.metadata(gen.cfg.Profile)
	ds.Clients = make([]Client, gen.cfg.Clients)
	par.ForN(len(ds.Clients), func(k int) {
		var cur ClientCursor
		ds.Clients[k] = *gen.Synth(&cur, k)
	})
	return ds
}

// GenerateLazy builds a generative federated dataset: no per-client
// state is materialized; clients are synthesized on demand through
// Fetch and are bit-identical to the ones Generate would build.
func GenerateLazy(cfg Config) *Dataset {
	gen := NewGenerator(cfg)
	ds := gen.geom.metadata(gen.cfg.Profile)
	ds.Gen = gen
	ds.Population = gen.cfg.Clients
	return ds
}

// metadata is a Dataset of the geometry with no clients.
func (g profileGeom) metadata(profile string) *Dataset {
	return &Dataset{Classes: g.classes, FeatureDim: g.featureDim, InputShape: g.inputShape, Profile: profile}
}

// sampleParams bundles per-client sampling state.
type sampleParams struct {
	geom           profileGeom
	protos         [][]float64
	maxModes       int
	complexity     int
	labelDist      []float64
	scales, biases []float64
	// norms is featureDim of scratch for a row's noise draws.
	norms       []float64
	noise       float64
	imageShaped bool
}

// sampleSetInto fills x/y with n synthesized samples, reusing their
// buffers when capacity allows, and returns the resized label slice.
// A row draws its label, mode and phase, then its featureDim noise
// normals in one call.
func sampleSetInto(x *tensor.Tensor, y []int, n int, sp sampleParams, src *xrand.Source) []int {
	g := sp.geom
	n = max(n, 1)
	if need := n * g.featureDim; cap(x.Data) >= need {
		x.Data = x.Data[:need]
	} else {
		x.Data = make([]tensor.Float, need)
	}
	x.Shape = append(x.Shape[:0], n, g.featureDim)
	if cap(y) >= n {
		y = y[:n]
	} else {
		y = make([]int, n)
	}
	modes := sp.complexity + 1
	for i := 0; i < n; i++ {
		c := sampleCategorical(sp.labelDist, src)
		mode := src.Intn(modes)
		p := sp.protos[c*sp.maxModes+mode]
		row := x.Data[i*g.featureDim : (i+1)*g.featureDim]
		if sp.imageShaped {
			// Random texture phase: rewards translation-invariant models.
			// Feature j = (c, y, x) reads the prototype at the shifted
			// (c, (y+dy) mod h, (x+dx) mod w); dy, dx ∈ {0, 1}, so one
			// compare wraps each.
			dy, dx := src.Intn(2), src.Intn(2)
			src.NormFloat64s(sp.norms)
			ch, h, w := g.inputShape[0], g.inputShape[1], g.inputShape[2]
			j := 0
			for cc := 0; cc < ch; cc++ {
				for yy := 0; yy < h; yy++ {
					sy := yy + dy
					if sy == h {
						sy = 0
					}
					prow := p[(cc*h+sy)*w : (cc*h+sy+1)*w]
					for xx := 0; xx < w; xx++ {
						sx := xx + dx
						if sx == w {
							sx = 0
						}
						row[j] = sp.feature(j, prow[sx], sp.norms[j])
						j++
					}
				}
			}
		} else {
			src.NormFloat64s(sp.norms)
			for j, z := range sp.norms {
				row[j] = sp.feature(j, p[j], z)
			}
		}
		y[i] = c
	}
	return y
}

// feature is feature j of a sample row: the prototype value proto plus
// the noise normal z, then the client's mild input shift (sensor/writer
// variation), a per-feature gain and offset jitter.
func (sp *sampleParams) feature(j int, proto, z float64) tensor.Float {
	v := proto + z*sp.noise
	return tensor.Float(v*sp.scales[j] + sp.biases[j])
}

// clientTransformInto draws the client's per-feature gain and offset
// jitter, len(norms)/2 features, interleaved: scales[i] from normal 2i,
// biases[i] from normal 2i+1. norms is the scratch they are drawn into.
func clientTransformInto(scales, biases, norms []float64, src *xrand.Source) ([]float64, []float64) {
	d := len(norms) / 2
	scales = resize(scales, d)
	biases = resize(biases, d)
	src.NormFloat64s(norms)
	for i := range scales {
		scales[i] = 1 + norms[2*i]*0.12
		biases[i] = norms[2*i+1] * 0.08
	}
	return scales, biases
}

// dirichletInto samples a categorical distribution from
// Dirichlet(h,...,h) into out using Gamma(h) marginals (Marsaglia-Tsang).
func dirichletInto(out []float64, k int, h float64, rng *xrand.Source) []float64 {
	out = resize(out, k)
	sum := 0.0
	for i := range out {
		g := gammaSample(h, rng)
		if g < 1e-12 {
			g = 1e-12
		}
		out[i] = g
		sum += g
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func resize(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func gammaSample(alpha float64, rng *xrand.Source) float64 {
	if alpha < 1 {
		// Johnk-style boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		return gammaSample(alpha+1, rng) * math.Pow(rng.Float64()+1e-16, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u+1e-300) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

func sampleCategorical(p []float64, rng *xrand.Source) int {
	u := rng.Float64()
	acc := 0.0
	for i, v := range p {
		acc += v
		if u <= acc {
			return i
		}
	}
	return len(p) - 1
}

// logUniformInt samples an integer log-uniformly over the inclusive
// range [lo, hi]. The draw covers [log lo, log(hi+1)) so that every
// integer in the range — including hi itself — has positive mass;
// sampling over [log lo, log hi] would reach hi with probability ≈ 0.
func logUniformInt(lo, hi int, rng *xrand.Source) int {
	if hi <= lo {
		return lo
	}
	l := math.Log(float64(lo))
	h := math.Log(float64(hi) + 1)
	n := int(math.Exp(l + rng.Float64()*(h-l)))
	// Guard the float boundaries: rounding in Exp can land one outside.
	if n < lo {
		n = lo
	} else if n > hi {
		n = hi
	}
	return n
}

// Centralized pools every client's training data into one shuffled set —
// the hypothetical cloud-ML upper bound of Figure 2. Generative datasets
// are synthesized client by client through a cursor.
func (d *Dataset) Centralized(seed int64) (*tensor.Tensor, []int) {
	var cur ClientCursor
	total := 0
	for k := 0; k < d.Len(); k++ {
		total += len(d.Fetch(&cur, k).TrainY)
	}
	x := tensor.New(total, d.FeatureDim)
	y := make([]int, total)
	i := 0
	for k := 0; k < d.Len(); k++ {
		c := d.Fetch(&cur, k)
		for s := range c.TrainY {
			copy(x.Data[i*d.FeatureDim:(i+1)*d.FeatureDim],
				c.TrainX.Data[s*d.FeatureDim:(s+1)*d.FeatureDim])
			y[i] = c.TrainY[s]
			i++
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := total - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		y[i], y[j] = y[j], y[i]
		ri := x.Data[i*d.FeatureDim : (i+1)*d.FeatureDim]
		rj := x.Data[j*d.FeatureDim : (j+1)*d.FeatureDim]
		for k := range ri {
			ri[k], rj[k] = rj[k], ri[k]
		}
	}
	return x, y
}

// Batch extracts a mini-batch of the given indices from (x, y).
func Batch(x *tensor.Tensor, y []int, idx []int) (*tensor.Tensor, []int) {
	bx := tensor.New(len(idx), x.Shape[1])
	by := make([]int, len(idx))
	BatchInto(bx, by, x, y, idx)
	return bx, by
}

// BatchInto fills bx/by with the mini-batch of the given indices,
// resizing bx (reusing its buffer when capacity allows) to
// (len(idx), features). by must have length len(idx). The streaming
// round loop's pooled client sessions batch through one recycled pair
// instead of allocating two objects per local step.
func BatchInto(bx *tensor.Tensor, by []int, x *tensor.Tensor, y []int, idx []int) {
	d := x.Shape[1]
	n := len(idx) * d
	if cap(bx.Data) >= n {
		bx.Data = bx.Data[:n]
	} else {
		bx.Data = make([]tensor.Float, n)
	}
	bx.Shape = append(bx.Shape[:0], len(idx), d)
	for i, s := range idx {
		copy(bx.Data[i*d:(i+1)*d], x.Data[s*d:(s+1)*d])
		by[i] = y[s]
	}
}
