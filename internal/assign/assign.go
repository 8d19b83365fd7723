// Package assign implements the paper's Client Manager (§4.2):
// utility-based probabilistic model assignment (Eqs. 2–3) under hardware
// compatibility constraints, and joint utility learning across
// architecturally similar models (Eq. 4).
package assign

import (
	"maps"
	"math"
	"math/rand"
	"slices"

	"fedtrans/internal/model"
)

// Manager tracks per-client utility vectors over the model suite and
// performs assignment.
type Manager struct {
	// utilities[c][modelID] — loss-based utility of each model for client
	// c. Missing entries default to 0 (the paper's initialization). Maps
	// are created lazily on first update: reads through a nil map return
	// zero, so an untouched client costs one pointer, not a map — the
	// table stays O(clients ever trained) in objects even for generative
	// million-client populations.
	utilities []map[int]float64
	// probs is Sample's scratch, reused across calls: the round loop,
	// Sample's one caller, assigns one client at a time.
	probs []float64
}

// NewManager returns a Manager for n registered clients. Per-client maps
// are allocated on first update, so construction is one slice whatever
// the population.
func NewManager(n int) *Manager {
	return &Manager{utilities: make([]map[int]float64, n)}
}

// ClientUtility is one client's utility map, the unit a checkpoint
// stores: only clients that hold some utility have one.
type ClientUtility struct {
	Client int
	U      map[int]float64
}

// ExportUtilities deep-copies the utility table for a checkpoint: one
// entry per client with a non-empty map, ascending by client, so its
// size is O(clients ever trained) whatever the population.
func (mg *Manager) ExportUtilities() []ClientUtility {
	var out []ClientUtility
	for c, u := range mg.utilities {
		if len(u) > 0 {
			out = append(out, ClientUtility{Client: c, U: maps.Clone(u)})
		}
	}
	return out
}

// ImportUtilities replaces the utility table with one for n clients
// holding a deep copy of list (checkpoint restore); every other client
// starts at zero utility with a nil map. The table's storage is reused
// when large enough, so a restored Manager holds one table, not two.
func (mg *Manager) ImportUtilities(n int, list []ClientUtility) {
	mg.utilities = slices.Grow(mg.utilities[:0], n)[:n]
	clear(mg.utilities)
	for _, cu := range list {
		mg.utilities[cu.Client] = maps.Clone(cu.U)
	}
}

// Compatible returns the suite models whose per-sample MACs do not exceed
// the client's capacity, in suite order. The initial model (index 0) is
// always considered compatible so every client can participate, matching
// the paper's setup where the initial model complexity corresponds to the
// least capable client.
func Compatible(suite []*model.Model, capacityMACs float64) []*model.Model {
	return CompatibleInto(nil, suite, capacityMACs)
}

// CompatibleInto is Compatible appending into a caller-owned buffer
// (pass buf[:0] to reuse its capacity) — the streaming round loop runs
// a compatibility query per participant and recycles one scratch slice
// across all of them.
func CompatibleInto(buf []*model.Model, suite []*model.Model, capacityMACs float64) []*model.Model {
	out := buf
	for i, m := range suite {
		if i == 0 || m.MACsPerSample() <= capacityMACs {
			out = append(out, m)
		}
	}
	return out
}

// Sample picks a model for client c among its compatible models using the
// softmax of utilities (Eqs. 2–3). It returns the chosen model.
func (mg *Manager) Sample(c int, compatible []*model.Model, rng *rand.Rand) *model.Model {
	if len(compatible) == 0 {
		return nil
	}
	if len(compatible) == 1 {
		return compatible[0]
	}
	u := mg.utilities[c]
	probs := slices.Grow(mg.probs[:0], len(compatible))[:len(compatible)]
	mg.probs = probs
	maxU := math.Inf(-1)
	for i, m := range compatible {
		v := u[m.ID]
		probs[i] = v
		if v > maxU {
			maxU = v
		}
	}
	sum := 0.0
	for i := range probs {
		probs[i] = math.Exp(probs[i] - maxU)
		sum += probs[i]
	}
	x := rng.Float64() * sum
	acc := 0.0
	for i, p := range probs {
		acc += p
		if x <= acc {
			return compatible[i]
		}
	}
	return compatible[len(compatible)-1]
}

// Best returns the compatible model with the highest utility for client c
// (ties broken toward the earlier/smaller model). Used at evaluation time:
// "we evaluate each client only on its compatible models and assign it the
// model with the highest utility" (§5.1).
func (mg *Manager) Best(c int, compatible []*model.Model) *model.Model {
	if len(compatible) == 0 {
		return nil
	}
	u := mg.utilities[c]
	best := compatible[0]
	bestU := u[best.ID]
	for _, m := range compatible[1:] {
		if u[m.ID] > bestU {
			best, bestU = m, u[m.ID]
		}
	}
	return best
}

// UpdateJoint applies Eq. 4 after client c trained model trained with the
// given standardized loss: for every compatible model Mk,
//
//	U_k ← U_k − L · sim(Mk, M*)
//
// so similar models borrow utility information while a high loss lowers
// utility. The standardized loss should be z-scored across the round (see
// StandardizeLossesInto).
func (mg *Manager) UpdateJoint(c int, trained *model.Model, stdLoss float64, compatible []*model.Model) {
	u := mg.utilities[c]
	if u == nil {
		u = make(map[int]float64, len(compatible))
		mg.utilities[c] = u
	}
	for _, mk := range compatible {
		sim := model.Sim(mk, trained)
		if sim <= 0 {
			continue
		}
		u[mk.ID] -= stdLoss * sim
	}
}

// InheritUtilities copies each client's utility for the parent model into
// the child model entry, reflecting the paper's Algorithm 1 line "copy the
// parent model's utility" when a transformation spawns a new model.
func (mg *Manager) InheritUtilities(parentID, childID int) {
	for _, u := range mg.utilities {
		if v, ok := u[parentID]; ok {
			u[childID] = v
		}
	}
}

// StandardizeLossesInto z-scores raw per-update losses across a round;
// with a single update (or zero variance) it returns zeros so utilities
// move only on relative evidence. It writes into a caller-owned
// buffer (reused when its capacity suffices, reallocated otherwise) —
// the streaming round loop standardizes per round without allocating.
func StandardizeLossesInto(buf, losses []float64) []float64 {
	var out []float64
	if cap(buf) >= len(losses) {
		out = buf[:len(losses)]
	} else {
		out = make([]float64, len(losses))
	}
	for i := range out {
		out[i] = 0
	}
	if len(losses) < 2 {
		return out
	}
	mean := 0.0
	for _, l := range losses {
		mean += l
	}
	mean /= float64(len(losses))
	varSum := 0.0
	for _, l := range losses {
		d := l - mean
		varSum += d * d
	}
	std := math.Sqrt(varSum / float64(len(losses)))
	if std < 1e-9 {
		return out
	}
	for i, l := range losses {
		out[i] = (l - mean) / std
	}
	return out
}
