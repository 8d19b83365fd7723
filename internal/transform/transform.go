// Package transform implements the paper's Model Transformer (§4.1): the
// Degree-of-Convergence trigger (Eq. 1), gradient-activeness Cell
// selection, and the widen/deepen alternation control flow (Figure 5).
package transform

import (
	"math/rand"

	"fedtrans/internal/model"
)

// Config collects the Model Transformer hyperparameters with the paper's
// defaults (§5.1, Table 7).
type Config struct {
	// Alpha is the Cell activeness threshold: cells whose activeness
	// exceeds Alpha × max activeness are transformed. Default 0.9.
	Alpha float64
	// Beta is the DoC threshold: transformation triggers when DoC ≤ Beta.
	// Default 0.003.
	Beta float64
	// Gamma is the number of consecutive loss slopes averaged into the
	// DoC. Default 10.
	Gamma int
	// Delta is the round step used for each loss slope. Default 20.
	Delta int
	// WidenFactor is the widening degree (default 2).
	WidenFactor float64
	// DeepenCells is the number of cells inserted per deepen (default 1).
	DeepenCells int
	// RandomCellSelection replaces gradient-based selection with uniform
	// random selection (the Table 3 "-l" ablation).
	RandomCellSelection bool
	// DisableWarmup re-initializes transformed model weights instead of
	// inheriting them (the Table 3 "-w" ablation).
	DisableWarmup bool
}

// DefaultConfig returns the paper's default transformer parameters.
func DefaultConfig() Config {
	return Config{
		Alpha:       0.9,
		Beta:        0.003,
		Gamma:       10,
		Delta:       20,
		WidenFactor: 2,
		DeepenCells: 1,
	}
}

// DoCTracker maintains the moving training-loss history and computes the
// Degree of Convergence of Eq. 1: the average of Gamma consecutive loss
// slopes, each measured over a Delta-round step.
type DoCTracker struct {
	gamma  int
	delta  int
	losses []float64
}

// NewDoCTracker returns a tracker with the given window parameters.
func NewDoCTracker(gamma, delta int) *DoCTracker {
	if gamma < 1 {
		gamma = 1
	}
	if delta < 1 {
		delta = 1
	}
	return &DoCTracker{gamma: gamma, delta: delta}
}

// Observe appends the round-i training loss.
func (d *DoCTracker) Observe(loss float64) { d.losses = append(d.losses, loss) }

// Reset clears the loss history (used after a transformation so the new
// suite must re-converge before transforming again).
func (d *DoCTracker) Reset() { d.losses = d.losses[:0] }

// Snapshot returns a copy of the observed loss history (checkpointing).
func (d *DoCTracker) Snapshot() []float64 {
	return append([]float64(nil), d.losses...)
}

// Restore replaces the loss history with a copy of losses (checkpoint
// restore).
func (d *DoCTracker) Restore(losses []float64) {
	d.losses = append(d.losses[:0], losses...)
}

// DoC returns the current degree of convergence and whether enough
// history exists to compute it. Following Eq. 1, it averages gamma slopes
// (L(i-delta) - L(i))/delta ending at the latest round.
func (d *DoCTracker) DoC() (float64, bool) {
	n := len(d.losses)
	need := d.gamma + d.delta
	if n < need {
		return 0, false
	}
	sum := 0.0
	for j := 0; j < d.gamma; j++ {
		i := n - 1 - j
		sum += (d.losses[i-d.delta] - d.losses[i]) / float64(d.delta)
	}
	return sum / float64(d.gamma), true
}

// ActivenessTracker keeps a moving window of per-cell activeness
// observations for one model and reports the window mean.
type ActivenessTracker struct {
	window int
	hist   map[int64][]float64 // cell ID -> recent activeness values
}

// NewActivenessTracker returns a tracker averaging over the given number
// of rounds (at least 1).
func NewActivenessTracker(window int) *ActivenessTracker {
	return &ActivenessTracker{window: window, hist: make(map[int64][]float64)}
}

// Observe records one round of per-cell activeness for the model.
func (a *ActivenessTracker) Observe(m *model.Model, act []float64) {
	for i := range m.Cells {
		id := m.Cells[i].ID
		h := append(a.hist[id], act[i])
		if len(h) > a.window {
			h = h[len(h)-a.window:]
		}
		a.hist[id] = h
	}
}

// Snapshot returns a deep copy of the per-cell activeness windows
// (checkpointing).
func (a *ActivenessTracker) Snapshot() map[int64][]float64 {
	out := make(map[int64][]float64, len(a.hist))
	for id, h := range a.hist {
		out[id] = append([]float64(nil), h...)
	}
	return out
}

// Restore replaces the per-cell activeness windows with a deep copy of
// hist (checkpoint restore).
func (a *ActivenessTracker) Restore(hist map[int64][]float64) {
	a.hist = make(map[int64][]float64, len(hist))
	for id, h := range hist {
		a.hist[id] = append([]float64(nil), h...)
	}
}

// Mean returns the window-mean activeness for each cell of the model.
func (a *ActivenessTracker) Mean(m *model.Model) []float64 {
	out := make([]float64, len(m.Cells))
	for i := range m.Cells {
		h := a.hist[m.Cells[i].ID]
		if len(h) == 0 {
			continue
		}
		s := 0.0
		for _, v := range h {
			s += v
		}
		out[i] = s / float64(len(h))
	}
	return out
}

// SelectCells returns the indices of cells to transform: those whose mean
// activeness exceeds cfg.Alpha times the maximum activeness among
// transformable cells (or uniformly random cells for the -l ablation).
// Cells that cannot be widened or deepened are never selected.
func SelectCells(m *model.Model, act []float64, cfg Config, rng *rand.Rand) []int {
	var candidates []int
	for i := range m.Cells {
		if m.CanWiden(i) || canDeepen(m, i) {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	if cfg.RandomCellSelection {
		// Pick the same expected count (1) uniformly at random.
		return []int{candidates[rng.Intn(len(candidates))]}
	}
	max := 0.0
	for _, i := range candidates {
		if act[i] > max {
			max = act[i]
		}
	}
	if max == 0 {
		return []int{candidates[0]}
	}
	var out []int
	for _, i := range candidates {
		if act[i] >= cfg.Alpha*max {
			out = append(out, i)
		}
	}
	return out
}

func canDeepen(m *model.Model, i int) bool {
	// Only parameterized cell kinds support identity insertion.
	switch m.Cells[i].Cell.Kind() {
	case "dense", "conv2d", "attention", "residual":
		return true
	}
	return false
}

// Apply derives a new model from parent at the given round: the selected
// cells are widened or deepened per the Figure 5 alternation (widen unless
// the cell was widened in the previous transformation, then deepen).
// Weights are inherited (function-preserving) unless cfg.DisableWarmup is
// set, in which case the child is re-initialized.
func Apply(parent *model.Model, selected []int, cfg Config, round int, rng *rand.Rand) *model.Model {
	child := parent.Derive(round)
	// Process from the rear so deepen insertions do not shift pending
	// indices.
	for si := len(selected) - 1; si >= 0; si-- {
		i := selected[si]
		widenedLast := child.Cells[i].WidenedLast
		canW := child.CanWiden(i)
		if canW && !widenedLast {
			child.WidenCell(i, cfg.WidenFactor, rng)
			continue
		}
		deepened := false
		if canDeepen(child, i) {
			for d := 0; d < cfg.DeepenCells; d++ {
				child.DeepenCell(i)
			}
			deepened = true
		}
		if !deepened && canW {
			child.WidenCell(i, cfg.WidenFactor, rng)
		}
	}
	if cfg.DisableWarmup {
		reinitialize(child, rng)
	}
	return child
}

func reinitialize(m *model.Model, rng *rand.Rand) {
	for _, p := range m.Params() {
		std := 0.1
		if p.Rank() >= 2 {
			std = 1.4 / float64(p.Shape[0])
			if std > 0.5 {
				std = 0.5
			}
		}
		p.RandNormal(rng, std)
	}
}
