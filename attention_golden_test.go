package fedtrans

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"fedtrans/internal/tensor"
)

// attentionGoldenOptions is the vit session the attention goldens are
// taken on: long enough for the suite to widen and deepen (four models,
// two attention cells deep), short enough to run at every tier.
func attentionGoldenOptions(heads int) Options {
	o := DefaultOptions()
	o.Profile = "vit"
	o.Clients = 12
	o.ClientsPerRound = 4
	o.Rounds = 30
	o.AttentionHeads = heads
	return o
}

// sessionDigest is FNV-1a over every field of a Summary — floats as
// IEEE-754 bits — followed by every exported model blob, so a last-bit
// change in any trained weight moves it.
func sessionDigest(t *testing.T, o Options) uint64 {
	t.Helper()
	s, err := NewSession(o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return summaryDigest(s.Run(), func(i int) []byte {
		blob, err := s.ExportModel(i)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}).Sum64()
}

// summaryDigest hashes every field of sum with FNV-1a, floats as their
// IEEE-754 bits, and after each model's fields the bytes blob returns for
// that model.
func summaryDigest(sum Summary, blob func(i int) []byte) hash.Hash64 {
	h := fnv.New64a()
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	floats := func(vs ...float64) {
		word(uint64(len(vs)))
		for _, v := range vs {
			word(math.Float64bits(v))
		}
	}
	floats(sum.MeanAccuracy, sum.AccuracyIQR, sum.TrainMACs, sum.WallClock, sum.MeanStaleness)
	floats(sum.ClientAccuracy...)
	for _, v := range []int64{sum.NetworkBytes, sum.StorageBytes, int64(sum.Rounds),
		int64(sum.Failures), int64(sum.Retries), int64(sum.AbortedRounds), int64(len(sum.Models))} {
		word(uint64(v))
	}
	for i, m := range sum.Models {
		word(uint64(len(m.Arch)))
		h.Write([]byte(m.Arch))
		floats(m.MACs)
		word(uint64(m.Params))
		b := blob(i)
		word(uint64(len(b)))
		h.Write(b)
	}
	return h
}

// attentionGoldenDigests holds sessionDigest of attentionGoldenOptions at
// one and at four heads, per kernel tier (the dot kernels reduce across
// a different lane partition at each tier). Recorded on amd64 before the
// per-head products became one fused kernel; a change to the attention
// kernels must leave every entry alone.
var attentionGoldenDigests = map[tensor.SIMDLevel][2]uint64{
	tensor.SIMDGeneric: {0x81a9d693ae6f3b4e, 0x1e284d6c5da4de5f},
	tensor.SIMDAVX2:    {0x43fe21dc8a3b0365, 0x7f569d17a02fceef},
	tensor.SIMDAVX512:  {0x4534503587c262df, 0xc41519cc4efb1754},
}

// TestGoldenAttentionSessions pins every number a vit session draws, and
// every weight it exports, at one and four heads on each tier the host
// has.
func TestGoldenAttentionSessions(t *testing.T) {
	defer tensor.SetSIMDLevel(tensor.CurrentSIMDLevel())
	for level := tensor.SIMDGeneric; level <= tensor.SIMDSupported(); level++ {
		tensor.SetSIMDLevel(level)
		want, pinned := attentionGoldenDigests[level]
		if runtime.GOARCH != "amd64" {
			pinned = false // another compiler may fuse multiply-adds
		}
		for i, heads := range []int{1, 4} {
			got := sessionDigest(t, attentionGoldenOptions(heads))
			switch {
			case !pinned:
				t.Logf("heads=%d at %s: digest %#x (not pinned on this platform)", heads, level, got)
			case got != want[i]:
				t.Errorf("heads=%d at %s: digest %#x, golden %#x", heads, level, got, want[i])
			}
		}
	}
}
