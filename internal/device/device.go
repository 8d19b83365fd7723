// Package device simulates the client hardware heterogeneity the paper
// samples from FedScale's 500k-device traces: per-client compute speed
// (MACs/s), network bandwidth, and the derived model-complexity capacity
// that constrains model assignment. The paper reports a >29× disparity
// between the most and least capable devices; the synthetic trace
// reproduces that spread with a log-normal distribution.
//
// Every device is a pure function of (Seed, index): NewTrace materializes
// the whole trace up front, NewTraceLazy keeps only the config and
// synthesizes devices on demand through At — bit-identical to the
// materialized entries — so trace setup cost is independent of N.
package device

import (
	"math"
	"math/rand"
	"sync"

	"fedtrans/internal/xrand"
)

// Device describes one simulated client device.
type Device struct {
	// ComputeMACsPerSec is the sustained multiply-accumulate throughput.
	ComputeMACsPerSec float64
	// BandwidthBytesPerSec is the up/down link throughput.
	BandwidthBytesPerSec float64
	// CapacityMACs is the largest per-sample model complexity (forward
	// MACs) the device accepts for training and deployment; Client
	// Manager only assigns models with MACs ≤ CapacityMACs.
	CapacityMACs float64
}

// TraceConfig parameterizes synthetic trace generation.
type TraceConfig struct {
	// N is the number of devices.
	N int
	// MinCapacityMACs and MaxCapacityMACs bound device capacity; they are
	// typically set to the initial and maximum model complexities so the
	// trace spans the whole model suite (§5.1).
	MinCapacityMACs float64
	MaxCapacityMACs float64
	// Seed drives the trace RNG.
	Seed int64
}

// shape is the log-normal shape parameter of the device draws: a
// heavy-tailed spread ≥29× between extremes for N in the hundreds.
const shape = 0.8

// Trace is a reproducible set of simulated devices. Hand-built traces
// (populating Devices directly) remain valid; traces from NewTrace or
// NewTraceLazy additionally know their generating config, which makes
// CapacityBound population-independent.
type Trace struct {
	Devices []Device
	// cfg is the normalized generating config; cfg.N == 0 for hand-built
	// traces.
	cfg TraceConfig
	// lazy marks generative traces: Devices stays nil and At synthesizes
	// each device from (cfg.Seed, index) on demand.
	lazy    bool
	rngPool sync.Pool
}

// normalize fills an unset capacity range. A range of one point
// (MaxCapacityMACs == MinCapacityMACs) is kept: every device then has the
// same capacity.
func normalize(cfg TraceConfig) TraceConfig {
	if cfg.MinCapacityMACs <= 0 {
		cfg.MinCapacityMACs = 1e3
	}
	if cfg.MaxCapacityMACs < cfg.MinCapacityMACs {
		cfg.MaxCapacityMACs = cfg.MinCapacityMACs * 32
	}
	return cfg
}

// deviceSeed derives device i's private RNG seed. Each device owns an
// independent stream — a sequential shared stream could not be entered
// mid-way because NormFloat64's ziggurat consumes a variable number of
// draws per sample.
func deviceSeed(seed int64, i int) int64 {
	return seed + int64(i)*15485863 + 1
}

// synthDevice samples device i. rng is reseeded, so any instance works;
// NewTrace and At pass an xrand-backed one, whose Seed is O(1) and whose
// stream equals rand.New(rand.NewSource(seed)) (xrand.TestReseedInPlace,
// TestTraceMatchesMathRandStreams).
func synthDevice(cfg *TraceConfig, rng *rand.Rand, i int) Device {
	rng.Seed(deviceSeed(cfg.Seed, i))
	logMin := math.Log(cfg.MinCapacityMACs)
	logMax := math.Log(cfg.MaxCapacityMACs)
	// Capacity: log-uniform base with log-normal jitter, clamped to
	// the configured range so every device can run at least the
	// initial model.
	u := rng.Float64()
	logCap := logMin + u*(logMax-logMin) + rng.NormFloat64()*shape*0.25
	if logCap < logMin {
		logCap = logMin
	}
	if logCap > logMax {
		logCap = logMax
	}
	capMACs := math.Exp(logCap)
	// Compute speed correlates with capacity (big phones are fast);
	// 1 MFLOP-class spread around capacity/10ms.
	speed := capMACs / 0.01 * math.Exp(rng.NormFloat64()*shape*0.5)
	bw := 1e5 * math.Exp(rng.NormFloat64()*shape) // ~100 KB/s median
	return Device{
		ComputeMACsPerSec:    speed,
		BandwidthBytesPerSec: bw,
		CapacityMACs:         capMACs,
	}
}

// NewTrace samples a synthetic device trace with every device
// materialized.
func NewTrace(cfg TraceConfig) *Trace {
	cfg = normalize(cfg)
	tr := &Trace{Devices: make([]Device, cfg.N), cfg: cfg}
	rng := rand.New(xrand.New(0))
	for i := range tr.Devices {
		tr.Devices[i] = synthDevice(&cfg, rng, i)
	}
	return tr
}

// NewTraceLazy returns a generative trace: no per-device state is
// stored; At(i) synthesizes entries bit-identical to NewTrace's.
func NewTraceLazy(cfg TraceConfig) *Trace {
	return &Trace{cfg: normalize(cfg), lazy: true}
}

// Len is the number of devices in either representation.
func (t *Trace) Len() int {
	if t.lazy {
		return t.cfg.N
	}
	return len(t.Devices)
}

// At returns device i. Generative traces synthesize it on demand through
// a pooled RNG (safe for concurrent use, allocation-free in steady
// state); materialized traces index Devices.
func (t *Trace) At(i int) Device {
	if !t.lazy {
		return t.Devices[i]
	}
	rng, _ := t.rngPool.Get().(*rand.Rand)
	if rng == nil {
		rng = rand.New(xrand.New(0))
	}
	d := synthDevice(&t.cfg, rng, i)
	t.rngPool.Put(rng)
	return d
}

// CapacityBound returns the ceiling on device capacity: synthesis clamps
// every capacity to the configured [Min, Max] range, so for generated
// traces this is cfg.MaxCapacityMACs regardless of N. Hand-built traces
// fall back to the empirical maximum.
func (t *Trace) CapacityBound() float64 {
	if t.cfg.N > 0 || t.lazy {
		return t.cfg.MaxCapacityMACs
	}
	max := 0.0
	for _, d := range t.Devices {
		if d.CapacityMACs > max {
			max = d.CapacityMACs
		}
	}
	return max
}

// Disparity returns the max/min capacity ratio across the trace. A
// generated trace stops scanning once it has seen both clamped
// capacities, exp(log Min) and exp(log Max): synthDevice clamps log
// capacity to [log Min, log Max] and math.Exp is monotone, so no later
// device lies outside them, and the ratio is the full scan's, bit for
// bit. A hand-built trace, or one that never reaches a clamp, scans every
// device.
func (t *Trace) Disparity() float64 {
	n := t.Len()
	if n == 0 {
		return 0
	}
	lo, hi := math.NaN(), math.NaN() // equal to nothing: no early exit
	if t.cfg.N > 0 || t.lazy {
		lo, hi = math.Exp(math.Log(t.cfg.MinCapacityMACs)), math.Exp(math.Log(t.cfg.MaxCapacityMACs))
	}
	first := t.At(0).CapacityMACs
	min, max := first, first
	for i := 1; i < n && (min != lo || max != hi); i++ {
		c := t.At(i).CapacityMACs
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	return max / min
}

// TrainingTime returns the simulated wall-clock seconds for the device
// to train a model of the given per-sample forward MACs for steps×batch
// samples and to transfer modelBytes both ways. Backward is costed at 2×
// forward, the convention used throughout the repository.
func (d Device) TrainingTime(macsPerSample float64, steps, batch int, modelBytes int64) float64 {
	compute := 3 * macsPerSample * float64(steps*batch) / d.ComputeMACsPerSec
	network := 2 * float64(modelBytes) / d.BandwidthBytesPerSec
	return compute + network
}

// TrainingTime is Device.TrainingTime for device i.
func (t *Trace) TrainingTime(i int, macsPerSample float64, steps, batch int, modelBytes int64) float64 {
	return t.At(i).TrainingTime(macsPerSample, steps, batch, modelBytes)
}

// InferenceLatency returns the simulated per-sample inference latency in
// milliseconds for device i and a model of the given forward MACs.
func (t *Trace) InferenceLatency(i int, macsPerSample float64) float64 {
	return macsPerSample / t.At(i).ComputeMACsPerSec * 1000
}
