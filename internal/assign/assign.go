// Package assign implements the paper's Client Manager (§4.2):
// utility-based probabilistic model assignment (Eqs. 2–3) under hardware
// compatibility constraints, and joint utility learning across
// architecturally similar models (Eq. 4).
//
// The utility table holds the clients that have trained and nothing
// else: its memory is O(trained clients × models), with no structure
// sized by the population.
package assign

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"fedtrans/internal/model"
)

// Manager tracks per-client utility vectors over the model suite and
// performs assignment.
//
// The utility table is column-major: a client gets a row on its first
// utility update, and each model written to gets a value column and a
// presence bitset over the rows. Missing entries read as 0 (the paper's
// initialization). Columns ascend by model ID, which is also suite order.
type Manager struct {
	rows    map[int]int32 // client → row, for clients that hold a utility
	clients []int         // row → client
	ids     []int         // the columns' model IDs, ascending
	cols    []column      // parallel to ids
	reserve int           // rows a column is allocated for at first (Reserve)
	spare   column        // storage Reserve allocated for the first column
	// sims memoizes model.Sim by model-ID pair: a suite model's
	// architecture never changes once it exists.
	sims map[[2]int]float64
	// probs is Sample's scratch, reused across calls: the round loop,
	// Sample's one caller, assigns one client at a time.
	probs []float64
	// order is ExportUtilities' scratch: the rows sorted by client.
	order []int32
}

// column is one model's utilities by row; rows at or past len(val) hold
// none. A set bit in has marks a stored utility, which may be 0: a
// checkpoint stores exactly the set entries. A clear bit has value 0.
type column struct {
	val []float64
	has []uint64
}

// NewManager returns a Manager for a population of n clients. Rows are
// added as clients train, so construction allocates the same whatever n
// is.
func NewManager(n int) *Manager {
	return &Manager{}
}

// Reserve sizes a new Manager's table for about n trained clients — a
// run trains at most rounds × participants of them, and never more than
// its population — so the index and the columns do not grow while the
// run stays within n. It allocates the index and the first column at
// once; a later column is allocated for n rows when first written.
func (mg *Manager) Reserve(n int) {
	mg.reserve = n
	mg.rows = make(map[int]int32, n)
	mg.clients = make([]int, 0, n)
	mg.spare = column{val: make([]float64, 0, n), has: make([]uint64, 0, (n+63)/64)}
}

// Utility is one stored (model, utility) entry.
type Utility struct {
	Model int
	Value float64
}

// ClientUtility is one client's stored utilities, ascending by model: the
// unit a checkpoint stores. Only clients that hold some utility have one.
type ClientUtility struct {
	Client int
	U      []Utility
}

// ExportUtilities copies the utility table for a checkpoint: one entry
// per client that holds a utility, ascending by client. Every entry's
// list is carved from one backing array, so an export is two
// allocations, whatever the number of clients.
func (mg *Manager) ExportUtilities() []ClientUtility {
	if len(mg.clients) == 0 {
		return nil
	}
	order := mg.order[:0]
	for r := range mg.clients {
		order = append(order, int32(r))
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(mg.clients[a], mg.clients[b]) })
	mg.order = order
	entries := 0
	for j := range mg.cols {
		for _, w := range mg.cols[j].has {
			entries += bits.OnesCount64(w)
		}
	}
	out := make([]ClientUtility, 0, len(order))
	flat := make([]Utility, 0, entries)
	for _, r := range order {
		start := len(flat)
		for j := range mg.cols {
			if col := &mg.cols[j]; col.holds(int(r)) {
				flat = append(flat, Utility{Model: mg.ids[j], Value: col.val[r]})
			}
		}
		if len(flat) > start {
			out = append(out, ClientUtility{Client: mg.clients[r], U: flat[start:len(flat):len(flat)]})
		}
	}
	return out
}

// ImportUtilities replaces the utility table with list (checkpoint
// restore): each listed client gets a row holding exactly its entries,
// and every other client starts at zero utility with none.
func (mg *Manager) ImportUtilities(list []ClientUtility) {
	clear(mg.rows)
	mg.clients = mg.clients[:0]
	mg.ids, mg.cols = nil, nil
	clear(mg.sims)
	for _, cu := range list {
		r := mg.row(cu.Client)
		for _, e := range cu.U {
			*mg.cell(mg.column(e.Model), r) = e.Value
		}
	}
}

// row returns client c's row, adding one if c has none.
func (mg *Manager) row(c int) int {
	if r, ok := mg.rows[c]; ok {
		return int(r)
	}
	if mg.rows == nil {
		mg.rows = make(map[int]int32)
	}
	r := len(mg.clients)
	mg.rows[c] = int32(r)
	mg.clients = append(mg.clients, c)
	return r
}

// column returns the index of model id's column, inserting an empty one
// in ID order if it has none.
func (mg *Manager) column(id int) int {
	j, ok := slices.BinarySearch(mg.ids, id)
	if !ok {
		mg.ids = slices.Insert(mg.ids, j, id)
		mg.cols = slices.Insert(mg.cols, j, mg.spare)
		mg.spare = column{}
	}
	return j
}

// cell marks row r of column j as stored and returns its value's
// address.
func (mg *Manager) cell(j, r int) *float64 {
	col := &mg.cols[j]
	col.grow(r+1, mg.reserve)
	col.has[r/64] |= 1 << (uint(r) % 64)
	return &col.val[r]
}

// get returns row r's utility for model id, or 0 when it stores none or
// ok is false (the client has no row).
func (mg *Manager) get(r int32, ok bool, id int) float64 {
	if !ok {
		return 0
	}
	j, found := slices.BinarySearch(mg.ids, id)
	if !found || int(r) >= len(mg.cols[j].val) {
		return 0
	}
	return mg.cols[j].val[r]
}

// holds reports whether row r stores a utility.
func (col *column) holds(r int) bool {
	return r < len(col.val) && col.has[r/64]&(1<<(uint(r)%64)) != 0
}

// grow extends the column over rows rows, the new ones holding none. A
// column's first allocation covers at least reserve rows.
func (col *column) grow(rows, reserve int) {
	if n := len(col.val); rows > n {
		col.val = slices.Grow(col.val, max(rows, reserve)-n)[:rows]
		clear(col.val[n:])
	}
	if w, n := (rows+63)/64, len(col.has); w > n {
		col.has = slices.Grow(col.has, (max(rows, reserve)+63)/64-n)[:w]
		clear(col.has[n:])
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
	r, ok := mg.rows[c]
	probs := slices.Grow(mg.probs[:0], len(compatible))[:len(compatible)]
	mg.probs = probs
	maxU := math.Inf(-1)
	for i, m := range compatible {
		v := mg.get(r, ok, m.ID)
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
	r, ok := mg.rows[c]
	best := compatible[0]
	bestU := mg.get(r, ok, best.ID)
	for _, m := range compatible[1:] {
		if v := mg.get(r, ok, m.ID); v > bestU {
			best, bestU = m, v
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
// StandardizeLossesInto). A model with sim > 0 stores a utility even
// when the update leaves it at 0.
func (mg *Manager) UpdateJoint(c int, trained *model.Model, stdLoss float64, compatible []*model.Model) {
	r := -1
	for _, mk := range compatible {
		sim := mg.sim(mk, trained)
		if sim <= 0 {
			continue
		}
		if r < 0 {
			r = mg.row(c)
		}
		*mg.cell(mg.column(mk.ID), r) -= stdLoss * sim
	}
}

// sim is model.Sim(a, b), computed once per model-ID pair.
func (mg *Manager) sim(a, b *model.Model) float64 {
	if a == nil || b == nil || a.ID == b.ID {
		return model.Sim(a, b)
	}
	k := [2]int{a.ID, b.ID}
	s, ok := mg.sims[k]
	if !ok {
		if mg.sims == nil {
			mg.sims = make(map[[2]int]float64)
		}
		s = model.Sim(a, b)
		mg.sims[k] = s
	}
	return s
}

// InheritUtilities copies each client's utility for the parent model into
// the child model entry, reflecting the paper's Algorithm 1 line "copy the
// parent model's utility" when a transformation spawns a new model. A
// child without a column — a new model, as in every run — gets a copy of
// the parent's column, one memmove over the trained rows.
func (mg *Manager) InheritUtilities(parentID, childID int) {
	if _, ok := slices.BinarySearch(mg.ids, parentID); !ok {
		return
	}
	c := mg.column(childID)
	p, _ := slices.BinarySearch(mg.ids, parentID) // the insert may have moved it
	parent, child := &mg.cols[p], &mg.cols[c]
	fresh := len(child.val) == 0
	child.grow(len(parent.val), mg.reserve)
	if fresh {
		copy(child.val, parent.val)
		copy(child.has, parent.has)
		return
	}
	for w, set := range parent.has {
		child.has[w] |= set
		for ; set != 0; set &= set - 1 {
			r := 64*w + bits.TrailingZeros64(set)
			child.val[r] = parent.val[r]
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
