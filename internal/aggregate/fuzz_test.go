package aggregate

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"fedtrans/internal/model"
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
