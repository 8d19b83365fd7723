package fl

import (
	"math/rand"

	"fedtrans/internal/data"
	"fedtrans/internal/model"
	"fedtrans/internal/nn"
)

// Personalize fine-tunes a copy of the model on one client's local data
// and returns the personalized model plus its test accuracy — the common
// FL personalization step the paper's related work surveys (Collins et
// al., Ditto, ...). The server model is not mutated.
func Personalize(m *model.Model, cl *data.Client, steps int, lr float64, rng *rand.Rand) (*model.Model, float64) {
	local := m.Clone()
	opt := nn.NewSGD(lr)
	n := len(cl.TrainY)
	if steps < 1 {
		steps = 1
	}
	batch := 10
	if batch > n {
		batch = n
	}
	for s := 0; s < steps; s++ {
		idx := make([]int, batch)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		bx, by := data.Batch(cl.TrainX, cl.TrainY, idx)
		local.TrainStep(bx, by, opt)
	}
	acc, _ := local.Evaluate(cl.TestX, cl.TestY)
	return local, acc
}
