package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 {
		t.Errorf("Len = %d, want 24", tt.Len())
	}
	if tt.Rank() != 3 {
		t.Errorf("Rank = %d, want 3", tt.Rank())
	}
	if tt.Dim(1) != 3 {
		t.Errorf("Dim(1) = %d, want 3", tt.Dim(1))
	}
	for _, v := range tt.Data {
		if v != 0 {
			t.Fatal("New tensor not zeroed")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive dim")
		}
	}()
	New(2, 0)
}

func TestFromSlice(t *testing.T) {
	d := []Float{1, 2, 3, 4, 5, 6}
	tt := FromSlice(d, 2, 3)
	if tt.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", tt.At(1, 2))
	}
	tt.Set(0, 1, 9)
	if d[1] != 9 {
		t.Error("FromSlice must wrap, not copy")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for size mismatch")
		}
	}()
	FromSlice([]Float{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	a := New(2, 2)
	a.Fill(3)
	b := a.Clone()
	b.Data[0] = -1
	if a.Data[0] != 3 {
		t.Error("Clone shares storage with original")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := New(2, 6)
	a.Data[7] = 42
	b := a.Reshape(3, 4)
	if b.Data[7] != 42 {
		t.Error("Reshape must share data")
	}
	if b.Shape[0] != 3 || b.Shape[1] != 4 {
		t.Errorf("Reshape shape = %v", b.Shape)
	}
}

func TestReshapePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestAddScaledAndScale(t *testing.T) {
	a := FromSlice([]Float{1, 2}, 2)
	b := FromSlice([]Float{10, 20}, 2)
	a.AddScaled(b, 0.5)
	if a.Data[0] != 6 || a.Data[1] != 12 {
		t.Errorf("AddScaled = %v", a.Data)
	}
	a.Scale(2)
	if a.Data[0] != 12 || a.Data[1] != 24 {
		t.Errorf("Scale = %v", a.Data)
	}
}

func TestNorm(t *testing.T) {
	a := FromSlice([]Float{3, 4}, 2)
	if got := a.Norm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := a.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v, want 4", got)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]Float{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]Float{5, 6, 7, 8}, 2, 2)
	c := New(2, 2)
	MatMulInto(c, a, b)
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if math.Abs(float64(c.Data[i])-w) > 1e-12 {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MatMulInto(New(2, 3), New(2, 3), New(2, 3))
}

// randMat builds a random matrix from a seed for property tests.
func randMat(rng *rand.Rand, r, c int) *Tensor {
	m := New(r, c)
	m.RandNormal(rng, 1)
	return m
}

// TestMatMulTransposeVariantsAgree checks MatMulTransAInto/BInto against
// explicit transposition through MatMulInto.
func TestMatMulTransposeVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 25; iter++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randMat(rng, k, m) // for TransA
		b := randMat(rng, k, n)
		got, want := New(m, n), New(m, n)
		MatMulTransAInto(got, a, b)
		MatMulInto(want, transpose(a), b)
		if !Equal(got, want, 1e-5) {
			t.Fatalf("MatMulTransA mismatch at iter %d", iter)
		}
		a2 := randMat(rng, m, k)
		b2 := randMat(rng, n, k)
		got2, want2 := New(m, n), New(m, n)
		MatMulTransBInto(got2, a2, b2)
		MatMulInto(want2, a2, transpose(b2))
		if !Equal(got2, want2, 1e-5) {
			t.Fatalf("MatMulTransB mismatch at iter %d", iter)
		}
	}
}

func transpose(a *Tensor) *Tensor {
	r, c := a.Shape[0], a.Shape[1]
	out := New(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Set(j, i, a.At(i, j))
		}
	}
	return out
}

// Property: matmul distributes over addition, (A)(B+C) = AB + AC.
func TestMatMulDistributive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		c := randMat(rng, k, n)
		bc := b.Clone()
		bc.AddScaled(c, 1)
		left, ab, ac := New(m, n), New(m, n), New(m, n)
		MatMulInto(left, a, bc)
		MatMulInto(ab, a, b)
		MatMulInto(ac, a, c)
		ab.AddScaled(ac, 1)
		return Equal(left, ab, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(5), 1+r.Intn(8)
		m := New(rows, cols)
		m.RandNormal(r, 10) // large magnitudes stress stability
		s := Softmax(m)
		for i := 0; i < rows; i++ {
			sum := 0.0
			for j := 0; j < cols; j++ {
				v := float64(s.At(i, j))
				if v < 0 || v > 1 || math.IsNaN(v) {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxInvariantToShift(t *testing.T) {
	m := FromSlice([]Float{1, 2, 3}, 1, 3)
	shifted := FromSlice([]Float{1001, 1002, 1003}, 1, 3)
	if !Equal(Softmax(m), Softmax(shifted), 1e-9) {
		t.Error("softmax must be shift-invariant")
	}
}

func TestArgMaxRow(t *testing.T) {
	m := FromSlice([]Float{0, 5, 3, 9, 1, 2}, 2, 3)
	if m.ArgMaxRow(0) != 1 {
		t.Errorf("ArgMaxRow(0) = %d, want 1", m.ArgMaxRow(0))
	}
	if m.ArgMaxRow(1) != 0 {
		t.Errorf("ArgMaxRow(1) = %d, want 0", m.ArgMaxRow(1))
	}
}

func TestEqual(t *testing.T) {
	a := FromSlice([]Float{1, 2}, 2)
	b := FromSlice([]Float{1, 2.0001}, 2)
	if !Equal(a, b, 1e-3) {
		t.Error("Equal within tolerance failed")
	}
	if Equal(a, b, 1e-9) {
		t.Error("Equal should fail outside tolerance")
	}
	c := FromSlice([]Float{1, 2}, 1, 2)
	if Equal(a, c, 1) {
		t.Error("Equal must compare shapes")
	}
}

func TestZeroAndFill(t *testing.T) {
	a := New(3)
	a.Fill(7)
	for _, v := range a.Data {
		if v != 7 {
			t.Fatal("Fill failed")
		}
	}
	a.Zero()
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestRandNormalStd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(10000)
	a.RandNormal(rng, 2)
	mean, varSum := 0.0, 0.0
	for _, v := range a.Data {
		mean += float64(v)
	}
	mean /= float64(a.Len())
	for _, v := range a.Data {
		varSum += (float64(v) - mean) * (float64(v) - mean)
	}
	std := math.Sqrt(varSum / float64(a.Len()))
	if math.Abs(std-2) > 0.1 {
		t.Errorf("sample std = %.3f, want ~2", std)
	}
}

// overlapPairs lists the (dst, src) flat index pairs of the shared
// region by the walk ForOverlap replaced: recurse over the axes, build
// both row-major offsets from the full index at every leaf.
func overlapPairs(dst, src *Tensor) [][2]int {
	var pairs [][2]int
	idx := make([]int, dst.Rank())
	var walk func(axis int)
	walk = func(axis int) {
		if axis == len(idx) {
			do, so := 0, 0
			for a, v := range idx {
				do = do*dst.Shape[a] + v
				so = so*src.Shape[a] + v
			}
			pairs = append(pairs, [2]int{do, so})
			return
		}
		for v := 0; v < min(dst.Shape[axis], src.Shape[axis]); v++ {
			idx[axis] = v
			walk(axis + 1)
		}
	}
	walk(0)
	return pairs
}

// TestForOverlapMatchesRecursiveWalk: the runs, expanded element by
// element, are the recursive walk's pairs in the recursive walk's
// order, for ranks 1 to 4 with either side larger on any axis.
func TestForOverlapMatchesRecursiveWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		rank := 1 + rng.Intn(4)
		ds, ss := make([]int, rank), make([]int, rank)
		for a := range ds {
			ds[a] = 1 + rng.Intn(4)
			ss[a] = ds[a]
			if rng.Intn(2) == 0 {
				ss[a] = 1 + rng.Intn(4)
			}
		}
		dst, src := New(ds...), New(ss...)
		var got [][2]int
		ForOverlap(dst, src, func(di, si, n int) {
			for j := 0; j < n; j++ {
				got = append(got, [2]int{di + j, si + j})
			}
		})
		want := overlapPairs(dst, src)
		if len(got) != len(want) {
			t.Fatalf("%v over %v: %d elements, want %d", ds, ss, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v over %v: element %d is %v, want %v", ds, ss, i, got[i], want[i])
			}
		}
	}
	runs := 0
	ForOverlap(New(3, 2, 3, 3), New(3, 2, 3, 3), func(di, si, n int) {
		runs++
		if di != 0 || si != 0 || n != 54 {
			t.Errorf("equal shapes: run (%d, %d, %d), want (0, 0, 54)", di, si, n)
		}
	})
	if runs != 1 {
		t.Errorf("equal shapes: %d runs, want 1", runs)
	}
}
