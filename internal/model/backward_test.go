package model

import (
	"math/rand"
	"testing"

	"fedtrans/internal/nn"
)

// opaqueCell forwards exactly the nn.Cell methods — what a recording
// wrapper such as the benchmark's layer tap does — so the cell behind it
// cannot be asked for parameter gradients only.
type opaqueCell struct{ nn.Cell }

// TestTrainStepFirstCellSkipBitIdentical trains every cell family 20
// steps twice from the same weights: once as built, where Backward asks
// the first cell for parameter gradients only, and once with that cell
// behind an opaque wrapper, which forces the full Backward. The weights
// must stay bit-equal, which pins both the skip and the fallback.
func TestTrainStepFirstCellSkipBitIdentical(t *testing.T) {
	for _, spec := range cowSpecs() {
		t.Run(spec.Family, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2020))
			skip := spec.BuildScoped(rng, NewIDGen())
			full := skip.Clone()
			if _, ok := full.Cells[0].Cell.(nn.ParamBackwarder); !ok {
				t.Fatalf("first %s cell has no params-only backward: nothing is skipped", spec.Family)
			}
			full.Cells[0].Cell = opaqueCell{full.Cells[0].Cell}
			x, y := probeFor(spec, rng, 5)
			optSkip, optFull := nn.NewSGD(0.1), nn.NewSGD(0.1)
			start := weightsOf(skip)
			for step := 0; step < 20; step++ {
				lossSkip := skip.TrainStep(x, y, optSkip)
				lossFull := full.TrainStep(x, y, optFull)
				if lossSkip != lossFull {
					t.Fatalf("step %d: loss %v with the skip, %v without", step, lossSkip, lossFull)
				}
				if !sameWeights(weightsOf(full), skip) {
					t.Fatalf("step %d: weights differ between the skip and the full backward", step)
				}
			}
			if sameWeights(start, skip) {
				t.Fatal("20 steps left the weights unchanged")
			}
		})
	}
}

// TestTrainStepHeadOnlyModel covers the model with no cells, where the
// head is the cell nothing upstream reads: its step must equal one made
// with the head's full Backward.
func TestTrainStepHeadOnlyModel(t *testing.T) {
	spec := Spec{Family: "dense", Input: []int{8}, Classes: 4}
	rng := rand.New(rand.NewSource(2021))
	skip := spec.BuildScoped(rng, NewIDGen())
	full := skip.Clone()
	x, y := probeFor(spec, rng, 5)
	optSkip, optFull := nn.NewSGD(0.1), nn.NewSGD(0.1)
	for step := 0; step < 5; step++ {
		skip.TrainStep(x, y, optSkip)

		full.ZeroGrads()
		logits := full.Forward(x)
		grad := logits.Clone()
		nn.SoftmaxCrossEntropyInto(grad, logits, y)
		full.Head.Backward(grad)
		optFull.Step(full.Params(), full.Grads())

		if !sameWeights(weightsOf(full), skip) {
			t.Fatalf("step %d: head-only weights differ", step)
		}
	}
}
