package aggregate

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"fedtrans/internal/model"
	"fedtrans/internal/nn"
	"fedtrans/internal/tensor"
)

// decodeFuzzBatch turns fuzz bytes into a batch of aggregate.Updates of
// arbitrary — deliberately often wrong — arity and tensor lengths:
// byte 0 is the update count (0–7); each update reads a tensor count
// (0–7), a per-update sample count (int8, so zero and negative appear),
// and per tensor a length (0–63) plus that many value bytes.
func decodeFuzzBatch(data []byte) []Update {
	r := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nUpd := int(r() % 8)
	batch := make([]Update, 0, nUpd)
	for u := 0; u < nUpd; u++ {
		nT := int(r() % 8)
		samples := int(int8(r()))
		upd := Update{Samples: samples, Loss: float64(int8(r())) / 4}
		for ti := 0; ti < nT; ti++ {
			l := int(r() % 64)
			tt := tensor.New(max(l, 1))
			tt.Data = tt.Data[:l]
			tt.Shape[0] = l
			for j := 0; j < l; j++ {
				bits := uint32(r()) | uint32(r())<<8 | uint32(r())<<16 | uint32(r())<<24
				v := math.Float32frombits(bits)
				tt.Data[j] = tensor.Float(v) // NaN/Inf allowed: must not panic
			}
			upd.Weights = append(upd.Weights, tt)
		}
		batch = append(batch, upd)
	}
	return batch
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FuzzStreamingUpdates hardens the streaming accumulator that every
// round's client uploads feed: arbitrary update batches — mismatched
// tensor counts and shapes, zero/negative samples, empty batches,
// NaN/Inf payloads — must never panic or corrupt the accumulator.
// Well-formed updates must fold exactly like buffered FedAvg; malformed
// ones must be rejected (ErrUpdateShape / ErrNonFinite) and leave counts
// unchanged.
func FuzzStreamingUpdates(f *testing.F) {
	// Seeds: empty batch, a single well-formed-looking update, a
	// mismatched-arity batch, a zero-sample update, junk lengths.
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 5, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8, 8, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{3, 1, 0, 0, 7, 2, 1, 1, 0, 0, 3, 4})
	f.Add([]byte{2, 0, 0, 0, 5, 3, 2})
	seed := make([]byte, 256)
	binary.BigEndian.PutUint64(seed, 0xdeadbeefcafef00d)
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		// A private ID scope keeps concurrent fuzz workers independent.
		m := model.Spec{Family: "dense", Input: []int{4}, Hidden: []int{3}, Classes: 2}.
			BuildScoped(rand.New(rand.NewSource(1)), model.NewIDGen())
		params := m.Params()
		batch := decodeFuzzBatch(data)

		s := NewStreaming()
		folded := 0
		wellFormed := func(u Update) bool {
			if len(u.Weights) != len(params) {
				return false
			}
			for i, w := range u.Weights {
				if w == nil || w.Len() != params[i].Len() {
					return false
				}
				for _, v := range w.Data {
					if v-v != 0 { // NaN/±Inf payloads are rejected (ErrNonFinite)
						return false
					}
				}
			}
			return true
		}
		for _, u := range batch {
			err := s.Add(m, u)
			if wellFormed(u) {
				if err != nil {
					t.Fatalf("well-formed update rejected: %v", err)
				}
				folded++
			} else if err == nil {
				t.Fatal("malformed update accepted")
			}
			if s.Updates(m.ID) != folded {
				t.Fatalf("count %d after %d folds", s.Updates(m.ID), folded)
			}
		}
		_, samples, ok := s.Finalize(m)
		if ok != (folded > 0) {
			t.Fatalf("finalize ok=%v with %d folded", ok, folded)
		}
		if ok && samples < folded {
			// Every update weighs at least 1 (zero/negative samples clamp).
			t.Fatalf("total samples %d < %d updates", samples, folded)
		}
		if s.Updates(m.ID) != 0 {
			t.Fatal("accumulator not reset")
		}
	})
}

// softAggregateRef is the snapshot form of SoftAggregate: it snapshots
// every model copy-on-write, keyed by cell ancestry (the last cell of an
// ancestor wins), then averages one model at a time, writing each before
// it sums the next. It is the oracle FuzzSoftAggregateMatchesSnapshots
// holds the two-pass body to.
func softAggregateRef(suite []*model.Model, round int, cfg SoftConfig) {
	if len(suite) < 2 {
		return
	}
	decay := 1.0
	if !cfg.DisableDecay {
		decay = pow(eta, round)
	}
	snaps := make([]refSnapshot, len(suite))
	for i, m := range suite {
		snaps[i] = refSnapshotOf(m)
	}
	for j, mj := range suite {
		params := mj.Params()
		acc := make([][]float64, len(params))
		wsum := 0.0
		for i := range acc {
			acc[i] = make([]float64, params[i].Len())
		}
		for i, mi := range suite {
			if !cfg.AllowL2S && i > j {
				continue
			}
			sim := model.Sim(mi, mj)
			if sim <= 0 {
				continue
			}
			weight := sim
			if i != j {
				weight *= decay
			}
			wsum += weight
			refAddAligned(acc, mj, snaps[i], weight)
		}
		if wsum <= 0 {
			continue
		}
		writeMean(params, acc, 1.0/wsum)
	}
}

type refSnapshot struct {
	cells map[int64][]*tensor.Tensor
	head  []*tensor.Tensor
}

func refSnapshotOf(m *model.Model) refSnapshot {
	s := refSnapshot{cells: make(map[int64][]*tensor.Tensor, len(m.Cells))}
	for i := range m.Cells {
		var ps []*tensor.Tensor
		for _, p := range m.Cells[i].Cell.Params() {
			ps = append(ps, p.LazyClone())
		}
		s.cells[m.Cells[i].AncestorID] = ps
	}
	for _, p := range m.Head.Params() {
		s.head = append(s.head, p.LazyClone())
	}
	return s
}

func refAddAligned(acc [][]float64, dst *model.Model, src refSnapshot, weight float64) {
	pi := 0
	addOwn := func(d *tensor.Tensor) {
		for j := range acc[pi] {
			acc[pi][j] += float64(d.Data[j]) * weight
		}
	}
	addFrom := func(s, d *tensor.Tensor) {
		if sameShape(s, d) {
			for j, v := range s.Data {
				acc[pi][j] += float64(v) * weight
			}
			return
		}
		if s.Rank() != d.Rank() {
			addOwn(d)
			return
		}
		cropAdd(acc[pi], s, d, weight)
	}
	for ci := range dst.Cells {
		srcParams, ok := src.cells[dst.Cells[ci].AncestorID]
		for k, d := range dst.Cells[ci].Cell.Params() {
			if ok && k < len(srcParams) {
				addFrom(srcParams[k], d)
			} else {
				addOwn(d)
			}
			pi++
		}
	}
	for k, d := range dst.Head.Params() {
		if k < len(src.head) {
			addFrom(src.head[k], d)
		} else {
			addOwn(d)
		}
		pi++
	}
}

// fuzzSpecs are the four cell families soft aggregation aligns.
var fuzzSpecs = []model.Spec{
	{Family: "dense", Input: []int{5}, Hidden: []int{4, 3}, Classes: 3},
	{Family: "residual", Input: []int{4}, Hidden: []int{3, 5}, Classes: 3},
	{Family: "conv", Input: []int{2, 5, 5}, Hidden: []int{3, 4}, Classes: 3},
	{Family: "attention", Input: []int{3, 4}, Hidden: []int{5}, Classes: 3, Heads: 2},
}

// fuzzSuite draws a suite, a round and a SoftConfig from data. The suite
// holds a base model of one family; a widened child, whose elders'
// tensors crop into it; a deepened grandchild, whose inserted cell no
// elder matches; up to four more models derived from random members by
// random widen and deepen chains; and, at a random position, a graft: a
// model of another family whose cells claim the base's ancestors, so
// matched tensors differ in rank. Every parameter then gets fresh
// weights, so no two models share a buffer.
func fuzzSuite(data []byte) (suite []*model.Model, round int, cfg SoftConfig) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	spec := fuzzSpecs[next()%len(fuzzSpecs)]
	flags := next()
	cfg = SoftConfig{AllowL2S: flags&1 != 0, DisableDecay: flags&2 != 0}
	round = next() * 5 // up to 1275: past the round where eta^t flushes to 0
	rng := rand.New(rand.NewSource(int64(next())))
	ids := model.NewIDGen()
	pick := func(m *model.Model, ok func(int) bool) int {
		var cands []int
		for i := range m.Cells {
			if ok(i) {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			return -1
		}
		return cands[next()%len(cands)]
	}
	widen := func(m *model.Model) bool {
		i := pick(m, m.CanWiden)
		if i >= 0 {
			m.WidenCell(i, 1.25+float64(next()%4)/4, rng)
		}
		return i >= 0
	}
	deepen := func(m *model.Model) bool {
		i := pick(m, func(i int) bool { _, ok := m.Cells[i].Cell.(nn.IdentityInserter); return ok })
		if i >= 0 {
			m.DeepenCell(i)
		}
		return i >= 0
	}
	base := spec.BuildScoped(rng, ids)
	child := base.Derive(1)
	grandchild := child.Derive(2)
	if !widen(child) || !deepen(grandchild) {
		panic("aggregate: fuzz spec cannot be widened and deepened")
	}
	suite = []*model.Model{base, child, grandchild}
	for n := next() % 5; n > 0; n-- {
		m := suite[next()%len(suite)].Derive(len(suite))
		for ops := 1 + next()%3; ops > 0; ops-- {
			if next()&1 == 0 {
				widen(m)
			} else {
				deepen(m)
			}
		}
		suite = append(suite, m)
	}
	graftSpec := fuzzSpecs[2] // conv: rank-4 kernels
	if spec.Family == "conv" {
		graftSpec = fuzzSpecs[0]
	}
	graft := graftSpec.BuildScoped(rng, ids)
	for i := range graft.Cells {
		if i < len(base.Cells) {
			graft.Cells[i].AncestorID = base.Cells[i].AncestorID
		}
	}
	at := next() % (len(suite) + 1)
	suite = append(suite[:at], append([]*model.Model{graft}, suite[at:]...)...)
	for _, m := range suite {
		for _, p := range m.Params() {
			p.EnsureOwnedDiscard()
			for j := range p.Data {
				p.Data[j] = tensor.Float(rng.NormFloat64())
			}
		}
	}
	return suite, round, cfg
}

// alignmentCases counts, over every ordered pair of suite members that
// share lineage, the matched tensors soft aggregation crops (same rank,
// other shape) and skips (other rank), and the destination cells no
// contributor cell matches.
func alignmentCases(suite []*model.Model) (crops, ranks, unmatched int) {
	for _, dst := range suite {
		for _, src := range suite {
			if src == dst || model.Sim(src, dst) <= 0 {
				continue
			}
			for ci := range dst.Cells {
				k := src.CellOf(dst.Cells[ci].AncestorID)
				if k < 0 {
					unmatched++
					continue
				}
				sp := src.CellParams(k)
				for n, d := range dst.CellParams(ci) {
					switch {
					case n >= len(sp) || sameShape(sp[n], d):
					case sp[n].Rank() != d.Rank():
						ranks++
					default:
						crops++
					}
				}
			}
		}
	}
	return crops, ranks, unmatched
}

// FuzzSoftAggregateMatchesSnapshots holds SoftAggregate to
// softAggregateRef bit for bit on suites drawn by fuzzSuite: every
// parameter of every model must carry the same float32 bits, so a body
// that reads a model after writing it, or sums contributors in another
// order, fails.
func FuzzSoftAggregateMatchesSnapshots(f *testing.F) {
	for fam := range byte(len(fuzzSpecs)) {
		for flags := range byte(4) {
			f.Add([]byte{fam, flags, 3 * flags, fam + flags, 4, 1, 2, 3, 1, 0, 2, 1, 3, 1, 2, 0, 1, 1, 3, 2})
		}
	}
	f.Add([]byte{1, 0, 250, 9, 0, 1, 0})
	f.Add([]byte{3, 1, 0, 7, 2, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, round, cfg := fuzzSuite(data)
		if c, r, u := alignmentCases(got); c == 0 || r == 0 || u == 0 {
			t.Fatalf("suite lacks a case: %d crops, %d rank mismatches, %d unmatched cells", c, r, u)
		}
		want := make([]*model.Model, len(got))
		for i, m := range got {
			want[i] = m.Clone()
		}
		softAggregateRef(want, round, cfg)
		SoftAggregate(got, round, cfg)
		for i := range got {
			wp := want[i].Params()
			for n, p := range got[i].Params() {
				for j, v := range p.Data {
					if math.Float32bits(v) != math.Float32bits(wp[n].Data[j]) {
						t.Fatalf("round %d, %+v: model %d of %d, parameter %d[%d] = %v, reference %v",
							round, cfg, i, len(got), n, j, v, wp[n].Data[j])
					}
				}
			}
		}
	})
}
