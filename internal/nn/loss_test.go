package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedtrans/internal/tensor"
)

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	logits := tensor.FromSlice([]tensor.Float{0, 0}, 1, 2)
	grad := tensor.New(1, 2)
	loss := SoftmaxCrossEntropyInto(grad, logits, []int{0})
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Errorf("loss = %v, want ln2", loss)
	}
	// grad = softmax - onehot = [0.5-1, 0.5] = [-0.5, 0.5]
	if math.Abs(float64(grad.Data[0])+0.5) > 1e-12 || math.Abs(float64(grad.Data[1])-0.5) > 1e-12 {
		t.Errorf("grad = %v", grad.Data)
	}
}

func TestSoftmaxCrossEntropyGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := tensor.New(3, 4)
	logits.RandNormal(rng, 1)
	labels := []int{1, 3, 0}
	grad, scratch := tensor.New(3, 4), tensor.New(3, 4)
	SoftmaxCrossEntropyInto(grad, logits, labels)
	eps := tensor.Float(1e-3)
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		hp := float64(logits.Data[i])
		lp := SoftmaxCrossEntropyInto(scratch, logits, labels)
		logits.Data[i] = orig - eps
		hm := float64(logits.Data[i])
		lm := SoftmaxCrossEntropyInto(scratch, logits, labels)
		logits.Data[i] = orig
		want := (lp - lm) / (hp - hm)
		if math.Abs(float64(grad.Data[i])-want) > 1e-3 {
			t.Fatalf("idx %d: analytic %.8f vs numeric %.8f", i, grad.Data[i], want)
		}
	}
}

func TestSoftmaxCrossEntropyGradSumsToZeroPerRow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(4), 2+r.Intn(6)
		logits := tensor.New(rows, cols)
		logits.RandNormal(r, 3)
		labels := make([]int, rows)
		for i := range labels {
			labels[i] = r.Intn(cols)
		}
		grad := tensor.New(rows, cols)
		SoftmaxCrossEntropyInto(grad, logits, labels)
		for i := 0; i < rows; i++ {
			sum := 0.0
			for j := 0; j < cols; j++ {
				sum += float64(grad.At(i, j))
			}
			if math.Abs(sum) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxCrossEntropyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SoftmaxCrossEntropyInto(tensor.New(2, 3), tensor.New(2, 3), []int{0})
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]tensor.Float{
		1, 0, 0,
		0, 1, 0,
		0, 0, 1,
		1, 0, 0,
	}, 4, 3)
	if got := Accuracy(logits, []int{0, 1, 2, 2}); got != 0.75 {
		t.Errorf("accuracy = %v, want 0.75", got)
	}
	if Accuracy(tensor.New(1, 2), nil) != 0 {
		t.Error("empty labels should give 0")
	}
}

func TestSGDStep(t *testing.T) {
	o := NewSGD(0.1)
	p := tensor.FromSlice([]tensor.Float{1, 2}, 2)
	g := tensor.FromSlice([]tensor.Float{10, -10}, 2)
	o.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	if math.Abs(float64(p.Data[0])-0) > 1e-12 || math.Abs(float64(p.Data[1])-3) > 1e-12 {
		t.Errorf("SGD step = %v", p.Data)
	}
}

func TestSGDProxPullsTowardAnchor(t *testing.T) {
	o := &SGD{LR: 0.1, ProxMu: 1}
	p := tensor.FromSlice([]tensor.Float{2}, 1)
	o.SetProxAnchor(p, []tensor.Float{0})
	g := tensor.FromSlice([]tensor.Float{0}, 1)
	o.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	// grad becomes mu*(2-0)=2; p = 2 - 0.1*2 = 1.8
	if math.Abs(float64(p.Data[0])-1.8) > 1e-7 {
		t.Errorf("prox p = %v, want 1.8", p.Data[0])
	}
}

func TestYogiStepsTowardAggregate(t *testing.T) {
	y := NewYogi(0.1)
	w := tensor.FromSlice([]tensor.Float{1}, 1)
	// Pseudo-gradient of +1 (server weight above aggregate) should push
	// the weight down.
	for i := 0; i < 5; i++ {
		y.Apply(0, []*tensor.Tensor{w}, [][]float64{{1}})
	}
	if w.Data[0] >= 1 {
		t.Errorf("Yogi did not descend: %v", w.Data[0])
	}
}

func TestYogiSlotsIndependent(t *testing.T) {
	y := NewYogi(0.1)
	w1 := tensor.FromSlice([]tensor.Float{0}, 1)
	w2 := tensor.FromSlice([]tensor.Float{0}, 1)
	y.Apply(1, []*tensor.Tensor{w1}, [][]float64{{1}})
	y.Apply(2, []*tensor.Tensor{w2}, [][]float64{{-1}})
	if w1.Data[0] >= 0 || w2.Data[0] <= 0 {
		t.Errorf("slots interfered: w1=%v w2=%v", w1.Data[0], w2.Data[0])
	}
}
