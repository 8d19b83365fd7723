package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// oracleGemm computes C += the product named by kind with the Go loop
// nests of the generic and avx2 tiers, over the running tier's
// micro-kernels. These nests are the per-element contract gemm.go
// states; the avx512 tier runs each product as one assembly call that
// must match them bit for bit. Below avx512 the oracle is the tier's own
// code, so an edit to these nests shows only at avx512 and in the
// trained goldens.
func oracleGemm(kind string, c, a, b []float32, m, k, n int) {
	switch {
	case kind == "A@B" && simdF32:
		gemmAccF32Tiled(c, a, b, m, k, n)
	case kind == "A@B":
		gemmAcc(c, a, b, m, k, n)
	case kind == "AT@B":
		gemmTAAcc(c, a, b, k, m, n)
	default:
		gemmTBAcc(c, a, b, m, k, n)
	}
}

// gemmNaN is the NaN the inputs carry: the x86 default NaN, the pattern
// an invalid operation (0·Inf, Inf−Inf) produces. With one NaN pattern
// in play, which operand of a commutative add or multiply the compiler
// (or the kernel) names first cannot show in the bits.
var gemmNaN = math.Float32frombits(0xFFC00000)

// gemmSpecials are the values a bit-exact comparison must get right
// besides ordinary ones: signed zeros (an FMA against ±0 is not a
// no-op on ±0 or non-finite data, so skipping it is observable), NaN,
// infinities, subnormals and the largest finite magnitude.
var gemmSpecials = []float32{
	0, float32(math.Copysign(0, -1)), gemmNaN,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(1), math.Float32frombits(0x807FFFFF), math.MaxFloat32,
}

// gemmOperand fills x (rows × cols, stored with the reduction index p at
// stride ps and the row index at stride rs) with unit normals, a share
// of specials, and — when rs ≥ 0 — quads along p that are all ±0 and
// zeroed remainders, the cases the skip rules decide.
func gemmOperand(rng *rand.Rand, x []float32, rows, k, rs, ps int) {
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		if rng.Intn(12) == 0 {
			x[i] = gemmSpecials[rng.Intn(len(gemmSpecials))]
		}
	}
	if rs < 0 {
		return
	}
	for i := 0; i < rows; i++ {
		for p := 0; p < k; p += 4 {
			if rng.Intn(3) != 0 {
				continue
			}
			for q := p; q < p+4 && q < k; q++ {
				x[i*rs+q*ps] = gemmSpecials[rng.Intn(2)] // ±0
			}
		}
	}
}

// gemmOperands allocates A and B for one product and returns where
// A[i][p] sits: a.Data[i*rs + p*ps].
func gemmOperands(kind string, m, k, n int) (a, b *Tensor, rs, ps int) {
	switch kind {
	case "A@B":
		return New(m, k), New(k, n), k, 1
	case "AT@B":
		return New(k, m), New(k, n), 1, m
	default:
		return New(m, k), New(n, k), k, 1
	}
}

// gemmCheck runs one product through the public entry point — Into
// over a C holding pre, or AccInto onto pre — and the oracle, and
// reports the first element whose bits differ.
func gemmCheck(t *testing.T, kind string, acc bool, a, b, pre *Tensor, m, k, n int) {
	t.Helper()
	got, want := New(m, n), New(m, n)
	copy(got.Data, pre.Data)
	if acc {
		copy(want.Data, pre.Data)
	}
	switch {
	case kind == "A@B" && acc:
		MatMulAccInto(got, a, b)
	case kind == "A@B":
		MatMulInto(got, a, b)
	case kind == "AT@B" && acc:
		MatMulTransAAccInto(got, a, b)
	case kind == "AT@B":
		MatMulTransAInto(got, a, b)
	case acc:
		MatMulTransBAccInto(got, a, b)
	default:
		MatMulTransBInto(got, a, b)
	}
	oracleGemm(kind, want.Data, a.Data, b.Data, m, k, n)
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s %s m=%d k=%d n=%d acc=%v: C[%d][%d] = %08x, oracle %08x",
				CurrentSIMDLevel(), kind, m, k, n, acc, i/n, i%n,
				math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

// gemmShapes are the products FedTrans's cells run per local step
// (m×k×n, A stored k×m for Aᵀ@B): the vit attention cell's projections
// and their gradients, and the cifar10 conv cells' im2col products. The
// oracle test runs them explicitly and BenchmarkMatMulShapes times them.
var gemmShapes = []struct {
	kind    string
	m, k, n int
}{
	{"A@B", 80, 8, 8}, {"A@B", 80, 8, 16},
	{"AT@B", 8, 80, 8}, {"AT@B", 8, 80, 16}, {"AT@B", 16, 80, 8},
	{"AT@B", 64, 12, 108}, {"AT@B", 64, 24, 108}, {"AT@B", 33, 8, 32},
	{"A@B", 6, 64, 27}, {"A@B", 12, 64, 27}, {"A@B", 12, 64, 108},
}

// TestGemmMatchesOracle holds every product at every host tier to the
// oracle, bit for bit, in both forms. The dimensions cross the 4/8/16
// lane and quad boundaries and gemmBlockK/gemmBlockJ; every (m, k) pair
// runs, with n cycling through its list, and every n runs at a few (m,
// k). Then every shape of gemmShapes runs.
func TestGemmMatchesOracle(t *testing.T) {
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 31, 33}
	ks := []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 23, 24, 25, 27, 31, 32, 33, 54, 64, 65, 255, 256, 259}
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 15, 16, 17, 23, 24, 25, 27, 31, 32, 33, 64, 479, 480, 481, 489}
	orig := CurrentSIMDLevel()
	defer SetSIMDLevel(orig)
	for level := SIMDGeneric; level <= SIMDSupported(); level++ {
		SetSIMDLevel(level)
		rng := rand.New(rand.NewSource(int64(level) + 1))
		run := func(kind string, m, k, n int) {
			a, b, rs, ps := gemmOperands(kind, m, k, n)
			gemmOperand(rng, a.Data, m, k, rs, ps)
			gemmOperand(rng, b.Data, 0, 0, -1, 0)
			pre := New(m, n)
			gemmOperand(rng, pre.Data, 0, 0, -1, 0)
			gemmCheck(t, kind, false, a, b, pre, m, k, n)
			gemmCheck(t, kind, true, a, b, pre, m, k, n)
		}
		for _, kind := range []string{"A@B", "AT@B", "A@BT"} {
			for im, m := range ms {
				for ik, k := range ks {
					run(kind, m, k, ns[(7*im+3*ik)%len(ns)])
				}
			}
			for in, n := range ns {
				run(kind, ms[in%len(ms)], ks[(5*in)%len(ks)], n)
			}
		}
		for _, s := range gemmShapes {
			run(s.kind, s.m, s.k, s.n)
		}
	}
}

// FuzzGemmBits draws a product, its shape and its operands from the
// input and holds the running tier to the oracle, bit for bit. shape
// packs m (1–33), k (1–260), n (1–490), then the product, the form
// (Into or AccInto) and whether a third of A's quads along p are ±0;
// vals supplies two bytes per element (cycled), mapped by fuzzFloat so
// that specials are common.
func FuzzGemmBits(f *testing.F) {
	const perForm = 33 * 260 * 490
	f.Add(uint32(0), []byte(nil))
	f.Add(uint32(3+33*63+33*260*26), []byte{1, 2, 3, 4, 0x10, 0, 0x20, 0x80})
	f.Add(uint32(5+33*26+33*260*480+perForm), []byte{0x30, 0xff, 0x40, 0x01})
	f.Add(uint32(6+33*8+33*260*63+2*perForm), []byte{0x50, 0x00, 0x7f, 0x3c, 0x00, 0x00})
	f.Add(uint32(32+33*259+33*260*9+9*perForm), []byte{0x60, 0x11})
	// A@B m=13 k=4 n=11, AccInto: a trailing row's all-±0 quad meets an
	// Inf in B, so an FMA where the skip belongs gives NaN.
	f.Add(uint32(37923711), []byte("0"))
	// Aᵀ@B m=26 k=20 n=481: a single row's column tail, where a fused
	// multiply-add rounds differently from the generic sum.
	f.Add(uint32(8323252), []byte("0"))
	// A@B m=24 k=65 n=27: a tile row's ±0 remainder term meets an Inf.
	f.Add(uint32(225215), []byte("00a0x"))
	// Aᵀ@B m=4 k=8 n=24, then m=8 k=9 n=8 and n=16 (AccInto): a 4-row,
	// a packed and a narrow tile whose rows disagree on quad 0's skip
	// while B holds an Inf there, so a mask shared by the tile's rows
	// gives NaN where a row skips.
	f.Add(uint32(29626974), []byte("0"))
	f.Add(uint32(42102331), []byte("0"))
	f.Add(uint32(42170971), []byte("0"))
	// A@B m=1 k=9 n=65 and Aᵀ@B m=3 k=13 n=104: one-row products whose
	// vector columns end on the 64-column panel edge and past it.
	f.Add(uint32(25774584), []byte("0"))
	f.Add(uint32(30313538), []byte("0"))
	// A@B m=8 k=13 n=8 and n=16: a packed and a narrow tile, rows 4–7
	// and the k%4 remainder included.
	f.Add(uint32(25285663), []byte("0"))
	f.Add(uint32(25354303), []byte("0"))
	f.Fuzz(func(t *testing.T, shape uint32, vals []byte) {
		m, k, n := 1+int(shape%33), 1+int(shape/33%260), 1+int(shape/(33*260)%490)
		form := shape / perForm
		kind := []string{"A@B", "AT@B", "A@BT"}[form%3]
		a, b, rs, ps := gemmOperands(kind, m, k, n)
		pre := New(m, n)
		for i, x := range [][]float32{a.Data, b.Data, pre.Data} {
			for j := range x {
				x[j] = fuzzFloat(vals, 3*j+i)
			}
		}
		if form/6%2 == 1 {
			for i := 0; i < m; i++ {
				for p := 0; p+4 <= k; p += 4 {
					if (i+p/4)%3 == 0 {
						for q := p; q < p+4; q++ {
							a.Data[i*rs+q*ps] = 0
						}
					}
				}
			}
		}
		gemmCheck(t, kind, form/3%2 == 1, a, b, pre, m, k, n)
	})
}

// fuzzFloat maps two input bytes (cycled, and mixed with the element
// index so a short input still varies) to a value: one in 16 is a
// gemmSpecials entry, the rest ±(1+f)·2^e for e in [−4, 3].
func fuzzFloat(vals []byte, i int) float32 {
	u := uint16(i * 0x9E37)
	if len(vals) > 0 {
		u ^= uint16(vals[(2*i)%len(vals)]) | uint16(vals[(2*i+1)%len(vals)])<<8
	}
	if u&15 == 0 {
		return gemmSpecials[int(u>>4)%len(gemmSpecials)]
	}
	return math.Float32frombits(uint32(u>>15)<<31 | uint32(123+u>>12&7)<<23 | uint32(u&0xFFF)<<11)
}
