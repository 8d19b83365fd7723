package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestSetSIMDLevelClamps pins the test hook's contract: the returned
// value is the previous level, requests above the host capability clamp
// to it, and negative requests clamp to generic.
func TestSetSIMDLevelClamps(t *testing.T) {
	t.Logf("host SIMD tier: %s", SIMDSupported()) // CI prints it: tiers above it are not tested
	orig := CurrentSIMDLevel()
	defer SetSIMDLevel(orig)
	if prev := SetSIMDLevel(SIMDGeneric); prev != orig {
		t.Errorf("SetSIMDLevel returned %v, want previous level %v", prev, orig)
	}
	if got := CurrentSIMDLevel(); got != SIMDGeneric {
		t.Errorf("level after SetSIMDLevel(generic) = %v", got)
	}
	SetSIMDLevel(SIMDAVX512)
	if got := CurrentSIMDLevel(); got > SIMDSupported() {
		t.Errorf("level %v exceeds host capability %v", got, SIMDSupported())
	}
	SetSIMDLevel(SIMDLevel(-3))
	if got := CurrentSIMDLevel(); got != SIMDGeneric {
		t.Errorf("negative request gave level %v, want generic", got)
	}
}

// TestGemmBitIdenticalAcrossAsmTiers pins the dispatch invariant the
// golden serial≡parallel≡networked tests rely on: A@B and Aᵀ@B compute
// each element identically at both assembly tiers, so the avx512 (one
// ZMM call per product) and avx2 (YMM loop nests) products are bit for
// bit the same, Into and AccInto. Per element that is one FMA per p
// below column n&^7 and the generic four-product sum in the column tail,
// at every tier (gemm.go states the contract; gemm_oracle_test.go holds
// each tier to it). A@Bᵀ is not here: its dot reductions partition
// differently per tier.
func TestGemmBitIdenticalAcrossAsmTiers(t *testing.T) {
	if SIMDSupported() < SIMDAVX512 {
		t.Skipf("host supports up to %s", SIMDSupported())
	}
	orig := CurrentSIMDLevel()
	defer SetSIMDLevel(orig)
	rng := rand.New(rand.NewSource(99))
	products := []struct {
		name string
		f    func(dst, a, b *Tensor)
		ta   bool
	}{
		{"MatMulInto", MatMulInto, false}, {"MatMulAccInto", MatMulAccInto, false},
		{"MatMulTransAInto", MatMulTransAInto, true}, {"MatMulTransAAccInto", MatMulTransAAccInto, true},
	}
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.Intn(12)
		k := 1 + rng.Intn(40)
		n := 1 + rng.Intn(70)
		b, pre := New(k, n), New(m, n)
		b.RandNormal(rng, 1)
		pre.RandNormal(rng, 1)
		for _, p := range products {
			a := New(m, k)
			if p.ta {
				a = New(k, m)
			}
			a.RandNormal(rng, 1)
			for i := 0; i < len(a.Data); i += 3 {
				a.Data[i] = 0 // all-zero quads and skipped terms
			}
			var c [2]*Tensor
			for i, level := range []SIMDLevel{SIMDAVX512, SIMDAVX2} {
				SetSIMDLevel(level)
				c[i] = New(m, n)
				copy(c[i].Data, pre.Data)
				p.f(c[i], a, b)
			}
			for i := range c[0].Data {
				if math.Float32bits(c[0].Data[i]) != math.Float32bits(c[1].Data[i]) {
					t.Fatalf("trial %d %s (m=%d k=%d n=%d): C[%d] avx512=%x avx2=%x",
						trial, p.name, m, k, n, i, math.Float32bits(c[0].Data[i]), math.Float32bits(c[1].Data[i]))
				}
			}
		}
		x, y := make([]Float, n), make([]Float, n)
		for i := range y {
			x[i] = Float(rng.NormFloat64())
			y[i] = Float(rng.NormFloat64())
		}
		x2 := append([]Float(nil), x...)
		SetSIMDLevel(SIMDAVX512)
		Axpy(x, y, 0.37)
		SetSIMDLevel(SIMDAVX2)
		Axpy(x2, y, 0.37)
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(x2[i]) {
				t.Fatalf("trial %d: axpy[%d] avx512=%x avx2=%x", trial, i, x[i], x2[i])
			}
		}
	}
}
