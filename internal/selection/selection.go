// Package selection provides participant-selection strategies for the FL
// runtime: uniform random (the paper's default) and an Oort-style guided
// selector (Lai et al., OSDI 2021 — discussed in the paper's related
// work) that prioritizes clients with high statistical utility (loss) and
// acceptable system speed, with an exploration/exploitation split.
package selection

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"

	"fedtrans/internal/wire"
	"fedtrans/internal/xrand"
)

// Selector chooses the participants of each round and receives feedback
// after they finish.
type Selector interface {
	// Select returns n distinct client indices from [0, total).
	Select(round, total, n int, rng *rand.Rand) []int
	// SelectFrom selects among an explicit candidate set instead of
	// the full [0, total) population — the entry point used when client
	// churn restricts the eligible clients of a round. Candidates are
	// real client IDs in ascending order; the returned slice holds
	// client IDs drawn from them.
	SelectFrom(round int, candidates []int, n int, rng *rand.Rand) []int
	// Feedback reports a participant's observed training loss and
	// simulated round duration.
	Feedback(client int, loss, duration float64)
}

// Stateful is implemented by selectors whose decisions depend on
// accumulated feedback. Checkpointing captures and restores that state
// so a resumed run selects identically to an uninterrupted one.
type Stateful interface {
	// StateSnapshot encodes the selector's feedback state
	// deterministically (identical state → identical bytes).
	StateSnapshot() []byte
	// StateRestore replaces the selector's feedback state with one
	// captured by StateSnapshot.
	StateRestore(b []byte) error
}

// Random is uniform sampling without replacement (the default): the
// first n entries of rng.Perm over the population, drawn in O(n) memory.
type Random struct{}

// Select implements Selector.
func (Random) Select(round, total, n int, rng *rand.Rand) []int {
	if n >= total {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return xrand.PermPrefix(rng, total, n)
}

// SelectFrom implements Selector: uniform sampling without
// replacement over the candidate set.
func (Random) SelectFrom(round int, candidates []int, n int, rng *rand.Rand) []int {
	if n >= len(candidates) {
		return append([]int(nil), candidates...)
	}
	out := xrand.PermPrefix(rng, len(candidates), n)
	for i, j := range out {
		out[i] = candidates[j]
	}
	return out
}

// Feedback implements Selector (no-op).
func (Random) Feedback(int, float64, float64) {}

// Oort implements guided participant selection: each client's utility is
// its recent training loss (statistical utility) multiplied by a system
// penalty when the client is slower than the preferred round duration:
//
//	util(c) = loss(c) × (T/duration(c))^Penalty   if duration > T
//
// An ExploreFrac share of every round goes to never-selected clients so
// utilities stay fresh.
type Oort struct {
	// PreferredDuration is T above (seconds). Default 5.
	PreferredDuration float64
	// Penalty is the system-speed exponent. Default 2 (Oort's alpha).
	Penalty float64
	// ExploreFrac is the share of each round reserved for unexplored
	// clients. Default 0.3.
	ExploreFrac float64

	util     map[int]float64
	duration map[int]float64
}

// NewOort returns an Oort selector with paper-typical defaults.
func NewOort() *Oort {
	return &Oort{
		PreferredDuration: 5,
		Penalty:           2,
		ExploreFrac:       0.3,
		util:              make(map[int]float64),
		duration:          make(map[int]float64),
	}
}

// Feedback implements Selector.
func (o *Oort) Feedback(client int, loss, duration float64) {
	if o.util == nil {
		o.util = make(map[int]float64)
		o.duration = make(map[int]float64)
	}
	// EMA so stale observations fade.
	if old, ok := o.util[client]; ok {
		o.util[client] = 0.5*old + 0.5*loss
		o.duration[client] = 0.5*o.duration[client] + 0.5*duration
	} else {
		o.util[client] = loss
		o.duration[client] = duration
	}
}

// score computes a client's Oort utility.
func (o *Oort) score(client int) float64 {
	u := o.util[client]
	d := o.duration[client]
	if d > o.PreferredDuration && d > 0 {
		u *= math.Pow(o.PreferredDuration/d, o.Penalty)
	}
	return u
}

// Select implements Selector: the exploit share takes the highest-utility
// explored clients; the explore share samples unexplored clients
// uniformly.
func (o *Oort) Select(round, total, n int, rng *rand.Rand) []int {
	if n >= total {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	candidates := make([]int, total)
	for i := range candidates {
		candidates[i] = i
	}
	return o.SelectFrom(round, candidates, n, rng)
}

// SelectFrom implements Selector with the same exploit/explore split
// restricted to the candidate set, so guided selection keeps honoring
// per-client feedback under churn (candidates are real client IDs,
// matching the IDs Feedback is keyed by).
func (o *Oort) SelectFrom(round int, candidates []int, n int, rng *rand.Rand) []int {
	if n >= len(candidates) {
		return append([]int(nil), candidates...)
	}
	if o.util == nil {
		o.util = make(map[int]float64)
		o.duration = make(map[int]float64)
	}
	var explored, fresh []int
	for _, c := range candidates {
		if _, ok := o.util[c]; ok {
			explored = append(explored, c)
		} else {
			fresh = append(fresh, c)
		}
	}
	exploreN := int(float64(n)*o.ExploreFrac + 0.5)
	if exploreN > len(fresh) {
		exploreN = len(fresh)
	}
	exploitN := n - exploreN

	// Exploit: top clients by score with a soft tail — shuffle within
	// epsilon bands to avoid starving near-ties.
	sort.SliceStable(explored, func(a, b int) bool {
		return o.score(explored[a]) > o.score(explored[b])
	})
	var out []int
	if exploitN > len(explored) {
		exploitN = len(explored)
	}
	out = append(out, explored[:exploitN]...)

	// Explore: uniform over fresh clients.
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	out = append(out, fresh[:exploreN]...)

	// Top up from remaining explored clients if the quota is unfilled.
	for i := exploitN; len(out) < n && i < len(explored); i++ {
		out = append(out, explored[i])
	}
	for i := exploreN; len(out) < n && i < len(fresh); i++ {
		out = append(out, fresh[i])
	}
	return out
}

// oortEntry is one client's row of the selector-state blob.
type oortEntry struct {
	client         uint32
	util, duration float64
}

var oortErrs = wire.Errs{
	Truncated: errors.New("selection: truncated Oort state"),
	Corrupt:   errors.New("selection: corrupt Oort state"),
}

// oortState is the blob's layout: a u32 count, then per client u32
// client | f64 utility | f64 duration (conventions: internal/wire).
func oortState(c wire.Coder, es *[]oortEntry) {
	wire.Slice(c, es, 20, func(e *oortEntry) {
		c.U32(&e.client)
		c.F64(&e.util)
		c.F64(&e.duration)
	})
}

// StateSnapshot implements Stateful: the EMA utility/duration tables in
// ascending client order (deterministic bytes for identical state).
func (o *Oort) StateSnapshot() []byte {
	es := make([]oortEntry, 0, len(o.util))
	for c, u := range o.util {
		es = append(es, oortEntry{uint32(c), u, o.duration[c]})
	}
	slices.SortFunc(es, func(a, b oortEntry) int { return cmp.Compare(a.client, b.client) })
	e := wire.Enc{B: make([]byte, 0, 4+20*len(es))}
	oortState(wire.Encoding(&e), &es)
	return e.B
}

// StateRestore implements Stateful.
func (o *Oort) StateRestore(b []byte) error {
	var es []oortEntry
	d := wire.NewDec(b, &oortErrs)
	oortState(wire.Decoding(&d), &es)
	if err := d.Done(); err != nil {
		return err
	}
	o.util = make(map[int]float64, len(es))
	o.duration = make(map[int]float64, len(es))
	for _, e := range es {
		o.util[int(e.client)], o.duration[int(e.client)] = e.util, e.duration
	}
	return nil
}
