package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// gemmTol is the float32-backend parity tolerance against the float64-
// accumulated naive references: the largest reduction in gemmSizes is a
// few hundred unit-variance terms, whose float32 rounding error stays
// well under this bound.
const gemmTol = 1e-4

// naiveMatMul is the straightforward triple loop the *Into kernels must
// match within gemmTol (the reference accumulates in float64; the
// kernels run in backend precision and may reassociate sums).
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[p*n+j])
			}
			c.Data[i*n+j] = Float(s)
		}
	}
	return c
}

func naiveMatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += float64(a.Data[p*m+i]) * float64(b.Data[p*n+j])
			}
			c.Data[i*n+j] = Float(s)
		}
	}
	return c
}

func naiveMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[j*k+p])
			}
			c.Data[i*n+j] = Float(s)
		}
	}
	return c
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	t.RandNormal(rng, 1)
	return t
}

// gemmSizes exercises odd, rectangular, and larger-than-one-block shapes.
var gemmSizes = [][3]int{
	{1, 1, 1}, {3, 5, 7}, {7, 3, 5}, {13, 17, 11},
	{64, 64, 64}, {31, 257, 9}, {5, 130, 300},
}

func TestMatMulIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sz := range gemmSizes {
		m, k, n := sz[0], sz[1], sz[2]
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		want := naiveMatMul(a, b)
		got := New(m, n)
		MatMulInto(got, a, b)
		if !Equal(got, want, gemmTol) {
			t.Fatalf("MatMulInto mismatch at %v", sz)
		}
		// Acc variant: dst starts non-zero and accumulates.
		acc := randTensor(rng, m, n)
		expect := acc.Clone()
		expect.AddScaled(want, 1)
		MatMulAccInto(acc, a, b)
		if !Equal(acc, expect, gemmTol) {
			t.Fatalf("MatMulAccInto mismatch at %v", sz)
		}
	}
}

func TestMatMulTransAIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sz := range gemmSizes {
		k, m, n := sz[0], sz[1], sz[2]
		a, b := randTensor(rng, k, m), randTensor(rng, k, n)
		want := naiveMatMulTransA(a, b)
		got := New(m, n)
		MatMulTransAInto(got, a, b)
		if !Equal(got, want, gemmTol) {
			t.Fatalf("MatMulTransAInto mismatch at %v", sz)
		}
		acc := randTensor(rng, m, n)
		expect := acc.Clone()
		expect.AddScaled(want, 1)
		MatMulTransAAccInto(acc, a, b)
		if !Equal(acc, expect, gemmTol) {
			t.Fatalf("MatMulTransAAccInto mismatch at %v", sz)
		}
	}
}

func TestMatMulTransBIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sz := range gemmSizes {
		m, k, n := sz[0], sz[1], sz[2]
		a, b := randTensor(rng, m, k), randTensor(rng, n, k)
		want := naiveMatMulTransB(a, b)
		got := New(m, n)
		MatMulTransBInto(got, a, b)
		if !Equal(got, want, gemmTol) {
			t.Fatalf("MatMulTransBInto mismatch at %v", sz)
		}
		acc := randTensor(rng, m, n)
		expect := acc.Clone()
		expect.AddScaled(want, 1)
		MatMulTransBAccInto(acc, a, b)
		if !Equal(acc, expect, gemmTol) {
			t.Fatalf("MatMulTransBAccInto mismatch at %v", sz)
		}
	}
}

func TestSoftmaxInto(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randTensor(rng, 9, 13)
	want := Softmax(x)
	got := New(9, 13)
	SoftmaxInto(got, x)
	if !Equal(got, want, 1e-12) {
		t.Fatal("SoftmaxInto mismatch")
	}
	// Aliased: in-place softmax.
	alias := x.Clone()
	SoftmaxInto(alias, alias)
	if !Equal(alias, want, 1e-12) {
		t.Fatal("aliased SoftmaxInto mismatch")
	}
}

func TestAddScaledInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := randTensor(rng, 4, 7), randTensor(rng, 4, 7)
	want := a.Clone()
	want.AddScaled(b, 0.37)
	got := New(4, 7)
	AddScaledInto(got, a, b, 0.37)
	if !Equal(got, want, 0) {
		t.Fatal("AddScaledInto mismatch")
	}
	// dst aliasing b (the residual-backward pattern).
	alias := b.Clone()
	AddScaledInto(alias, a, alias, 0.37)
	if !Equal(alias, want, 0) {
		t.Fatal("aliased AddScaledInto mismatch")
	}
}

func TestReluIntoAndMask(t *testing.T) {
	x := FromSlice([]Float{-1, 0, 2, -3, 4, -0.5}, 2, 3)
	out := New(2, 3)
	AddBiasReluRows(out, x.Clone(), New(3))
	for i, v := range x.Data {
		want := Float(math.Max(float64(v), 0))
		if out.Data[i] != want {
			t.Fatalf("AddBiasReluRows act[%d] = %v, want %v", i, out.Data[i], want)
		}
	}
	g := FromSlice([]Float{1, 2, 3, 4, 5, 6}, 2, 3)
	ReluMask(g, x)
	want := []Float{0, 0, 3, 0, 5, 0}
	for i := range want {
		if g.Data[i] != want[i] {
			t.Fatalf("ReluMask[%d] = %v, want %v", i, g.Data[i], want[i])
		}
	}
}

func TestBiasAndRowSums(t *testing.T) {
	x := FromSlice([]Float{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]Float{10, 20, 30}, 3)
	AddBiasRows(x, b)
	want := []Float{11, 22, 33, 14, 25, 36}
	for i := range want {
		if x.Data[i] != want[i] {
			t.Fatalf("AddBiasRows[%d] = %v", i, x.Data[i])
		}
	}
	sums := New(3)
	sums.Data[0] = 1 // accumulates
	SumRowsAcc(sums, x)
	wantSums := []Float{26, 47, 69}
	for i := range wantSums {
		if sums.Data[i] != wantSums[i] {
			t.Fatalf("SumRowsAcc[%d] = %v, want %v", i, sums.Data[i], wantSums[i])
		}
	}
}

func TestWorkspaceEnsureReuse(t *testing.T) {
	var ws Workspace
	var slot *Tensor
	a := ws.Ensure(&slot, 4, 8)
	if slot != a || a.Len() != 32 {
		t.Fatal("Ensure did not install the slot")
	}
	a.Fill(3)
	// Smaller shape reuses the same backing array.
	b := ws.Ensure(&slot, 2, 8)
	if b != a {
		t.Fatal("Ensure reallocated despite sufficient capacity")
	}
	if b.Len() != 16 || b.Dim(0) != 2 {
		t.Fatalf("Ensure shape = %v", b.Shape)
	}
	// Growing past capacity swaps the buffer but keeps the tensor.
	cbig := ws.Ensure(&slot, 100, 100)
	if cbig != a || cbig.Len() != 10000 {
		t.Fatal("Ensure grow failed")
	}
	z := ws.EnsureZero(&slot, 3, 3)
	for _, v := range z.Data {
		if v != 0 {
			t.Fatal("EnsureZero left data")
		}
	}
	ws.Release()
	if slot.Data != nil {
		t.Fatal("Release kept data")
	}
	// Slot remains usable after Release and is re-registered.
	r := ws.Ensure(&slot, 2, 2)
	r.Fill(1)
	ws.Release()
	if r.Data != nil {
		t.Fatal("second Release kept data")
	}
}

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const m, k, n = 64, 64, 64
	a, bb := randTensor(rng, m, k), randTensor(rng, k, n)
	dst := New(m, n)
	b.Run("into", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MatMulInto(dst, a, bb)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = naiveMatMul(a, bb)
		}
	})
}

// BenchmarkMatMulShapes times MatMulInto/MatMulTransAInto at each of
// gemmShapes on the host's tier, in GFLOP/s (2·m·k·n per product).
func BenchmarkMatMulShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range gemmShapes {
		a, bb, _, _ := gemmOperands(s.kind, s.m, s.k, s.n)
		a.RandNormal(rng, 1)
		bb.RandNormal(rng, 1)
		dst := New(s.m, s.n)
		mul := MatMulInto
		if s.kind == "AT@B" {
			mul = MatMulTransAInto
		}
		b.Run(fmt.Sprintf("%s_%dx%dx%d", strings.Replace(s.kind, "@", "", 1), s.m, s.k, s.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mul(dst, a, bb)
			}
			b.ReportMetric(2*float64(s.m*s.k*s.n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		})
	}
}

// The float32-vs-Ref64 parity sweep for every kernel (rank-2 GEMMs,
// the strided-batch family, softmax, and the vector-lane axpy/dot)
// lives in parity_ref64_test.go, driven by the shared
// internal/tensor/paritytest harness.

// TestMatMulTiledMatchesPerRow pins the m-blocked fast path: a batched
// product must equal row-by-row products bit for bit (same ascending-p
// accumulation order per element), including zero entries in A (the
// tile skips the all-zero-quad shortcut, which must be an arithmetic
// no-op on finite data, C starting at +0). Shapes cover the n%8, k%4,
// and m%4 tails.
func TestMatMulTiledMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sz := range [][3]int{{4, 8, 8}, {9, 37, 19}, {16, 64, 8}, {6, 4, 300}, {13, 259, 487}} {
		m, k, n := sz[0], sz[1], sz[2]
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		for i := 0; i < len(a.Data); i += 5 {
			a.Data[i] = 0 // exercise the quad-skip divergence
		}
		batch := New(m, n)
		MatMulInto(batch, a, b)
		row := New(1, n)
		for i := 0; i < m; i++ {
			ar := &Tensor{Shape: []int{1, k}, Data: a.Data[i*k : (i+1)*k]}
			MatMulInto(row, ar, b)
			for j := 0; j < n; j++ {
				if math.Float32bits(batch.Data[i*n+j]) != math.Float32bits(row.Data[j]) {
					t.Fatalf("%v: row %d col %d: batched %g != per-row %g",
						sz, i, j, batch.Data[i*n+j], row.Data[j])
				}
			}
		}
	}
}
