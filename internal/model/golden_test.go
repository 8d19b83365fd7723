package model

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"os"
	"strings"
	"testing"

	"fedtrans/internal/tensor"
)

// TestGoldenModelBlobs pins the persisted-model format absolutely, one
// blob per cell family (dense; conv2d + gap; two-head attention +
// meantokens; residual): u32 header length, the JSON architecture
// header, then the FTW1 weights. Every weight is overwritten from an
// exact-in-float32 pattern, so no byte depends on an rng. Each
// committed blob must be what MarshalBinary writes, and must load and
// marshal back to itself.
func TestGoldenModelBlobs(t *testing.T) {
	for _, spec := range []Spec{
		{Family: "dense", Input: []int{4}, Hidden: []int{3}, Classes: 2},
		{Family: "conv", Input: []int{1, 4, 4}, Hidden: []int{2}, Classes: 2},
		{Family: "attention", Input: []int{2, 4}, Hidden: []int{4}, Classes: 2, Heads: 2},
		{Family: "residual", Input: []int{4}, Hidden: []int{3}, Classes: 2},
	} {
		m := spec.BuildScoped(rand.New(rand.NewSource(1)), NewIDGen())
		for k, p := range m.Params() {
			for i := range p.Data {
				p.Data[i] = tensor.Float((i*7+k*3)%11-5) / 4
			}
		}
		got, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		text, err := os.ReadFile("testdata/model_" + spec.Family + ".hex")
		if err != nil {
			t.Fatal(err)
		}
		want, err := hex.DecodeString(strings.TrimSpace(string(text)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: model blob moved: %d bytes, golden %d\n got %x", spec.Family, len(got), len(want), got)
		}
		back, err := UnmarshalModelScoped(want, NewIDGen())
		if err != nil {
			t.Fatalf("%s: golden blob does not load: %v", spec.Family, err)
		}
		if re, err := back.MarshalBinary(); err != nil || !bytes.Equal(re, want) {
			t.Errorf("%s: load → marshal of the golden blob is not the identity (err %v)", spec.Family, err)
		}
	}
}
