package nn

import (
	"math"
	"sort"

	"fedtrans/internal/tensor"
)

// SGD is plain stochastic gradient descent with an optional FedProx
// proximal term.
type SGD struct {
	LR float64
	// ProxMu, when positive, adds the FedProx proximal gradient
	// mu*(w - w_anchor) using the anchors registered via SetProxAnchor.
	ProxMu float64

	anchors map[*tensor.Tensor][]tensor.Float
}

// NewSGD returns an SGD optimizer with the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// SetProxAnchor registers the FedProx anchor weights (typically the global
// model at round start) for a parameter tensor.
func (o *SGD) SetProxAnchor(p *tensor.Tensor, anchor []tensor.Float) {
	if o.anchors == nil {
		o.anchors = make(map[*tensor.Tensor][]tensor.Float)
	}
	cp := make([]tensor.Float, len(anchor))
	copy(cp, anchor)
	o.anchors[p] = cp
}

// Step applies one update to each parameter given its gradient. The
// hyperparameters are narrowed to the backend element type once so the
// inner loops run entirely in backend precision. The update is
// p + (−lr)·g, which is p − lr·g bit for bit: negation is exact, and
// x − y is x + (−y).
func (o *SGD) Step(params, grads []*tensor.Tensor) {
	mu := tensor.Float(o.ProxMu)
	for i, p := range params {
		g := grads[i]
		// Weights may still be COW-shared with the model this one was
		// cloned from; detach before the in-place update.
		p.EnsureOwned()
		if mu > 0 && o.anchors != nil {
			if a, ok := o.anchors[p]; ok && len(a) == len(p.Data) {
				for j := range p.Data {
					g.Data[j] += mu * (p.Data[j] - a[j])
				}
			}
		}
		tensor.AddScaledInto(p, p, g, -o.LR)
	}
}

// Yogi is the FedYogi server optimizer (Reddi et al.): an adaptive update
// applied to the pseudo-gradient delta = aggregated_client_weights -
// server_weights each round.
type Yogi struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Tau   float64

	m map[int][]float64
	v map[int][]float64
}

// NewYogi returns a Yogi optimizer with the paper-typical defaults.
func NewYogi(lr float64) *Yogi {
	return &Yogi{LR: lr, Beta1: 0.9, Beta2: 0.99, Tau: 1e-3}
}

// Slots returns the model slots with optimizer state, ascending
// (checkpointing).
func (y *Yogi) Slots() []int {
	if len(y.m) == 0 {
		return nil
	}
	out := make([]int, 0, len(y.m))
	for slot := range y.m {
		out = append(out, slot)
	}
	sort.Ints(out)
	return out
}

// State returns copies of a slot's first/second-moment vectors, or
// (nil, nil) when the slot has no state yet (checkpointing).
func (y *Yogi) State(slot int) (m, v []float64) {
	sm, ok := y.m[slot]
	if !ok {
		return nil, nil
	}
	return append([]float64(nil), sm...), append([]float64(nil), y.v[slot]...)
}

// SetState installs a slot's first/second-moment vectors (checkpoint
// restore); copies are taken. The two vectors must have equal length.
func (y *Yogi) SetState(slot int, m, v []float64) {
	if y.m == nil {
		y.m = make(map[int][]float64)
		y.v = make(map[int][]float64)
	}
	y.m[slot] = append([]float64(nil), m...)
	y.v[slot] = append([]float64(nil), v...)
}

// Apply updates server weights in place given the pseudo-gradient (the
// negated average client delta). Buffers are keyed by the caller-provided
// slot so that per-model state stays separate.
func (y *Yogi) Apply(slot int, weights []*tensor.Tensor, pseudoGrad [][]float64) {
	if y.m == nil {
		y.m = make(map[int][]float64)
		y.v = make(map[int][]float64)
	}
	total := 0
	for _, g := range pseudoGrad {
		total += len(g)
	}
	m, ok := y.m[slot]
	if !ok || len(m) != total {
		m = make([]float64, total)
		y.m[slot] = m
		y.v[slot] = make([]float64, total)
	}
	v := y.v[slot]
	off := 0
	for wi, w := range weights {
		w.EnsureOwned()
		g := pseudoGrad[wi]
		for j := range g {
			idx := off + j
			m[idx] = y.Beta1*m[idx] + (1-y.Beta1)*g[j]
			g2 := g[j] * g[j]
			sign := 1.0
			if v[idx] > g2 {
				sign = -1.0
			}
			// Yogi: v += -(1-beta2) * sign(v - g^2) * g^2  → additive form.
			v[idx] = v[idx] + (1-y.Beta2)*sign*g2
			if v[idx] < 0 {
				v[idx] = 0
			}
			w.Data[j] -= tensor.Float(y.LR * m[idx] / (math.Sqrt(v[idx]) + y.Tau))
		}
		off += len(g)
	}
}
