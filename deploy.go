package fedtrans

import (
	"fmt"
	"sync"

	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

// ExportModel serializes the i-th model of the trained suite (creation
// order, as reported by Summary.Models) into a self-contained blob that
// LoadModel can deploy without the training session.
func (s *Session) ExportModel(i int) ([]byte, error) {
	suite := s.runtime.Suite()
	if i < 0 || i >= len(suite) {
		return nil, fmt.Errorf("fedtrans: model index %d out of range [0, %d)", i, len(suite))
	}
	return suite[i].MarshalBinary()
}

// Deployed is a loaded, inference-only model. Prediction runs through a
// pool of inference sessions — each a copy-on-write clone of the model
// with its own forward workspaces and a reusable input buffer — so
// concurrent Predict/PredictBatch calls never contend and steady-state
// calls allocate nothing model-sized.
type Deployed struct {
	m   *model.Model
	dim int
	// pool holds idle *inferSession values.
	pool sync.Pool
}

// inferSession is one pooled forward pipeline: a COW clone (weights
// shared with the deployed model, workspaces private) plus an input
// tensor grown once and resliced per request.
type inferSession struct {
	m  *model.Model
	in *tensor.Tensor
}

// ensureIn shapes the session's input buffer to rows×dim, reusing its
// backing array whenever capacity suffices.
func (s *inferSession) ensureIn(rows, dim int) *tensor.Tensor {
	if s.in == nil {
		s.in = tensor.New(rows, dim)
		return s.in
	}
	n := rows * dim
	if cap(s.in.Data) < n {
		s.in.Data = make([]tensor.Float, n)
	}
	s.in.Data = s.in.Data[:n]
	s.in.Shape[0], s.in.Shape[1] = rows, dim
	return s.in
}

// LoadModel deserializes a blob produced by Session.ExportModel.
func LoadModel(blob []byte) (*Deployed, error) {
	// Scoped load: a deployment inside a parallel experiment grid must
	// not perturb the shared process-wide ID counter.
	m, err := model.UnmarshalModelScoped(blob, model.NewIDGen())
	if err != nil {
		return nil, err
	}
	dim := 1
	for _, s := range m.InputShape {
		dim *= s
	}
	return &Deployed{m: m, dim: dim}, nil
}

// InputDim is the flat feature dimension the model expects.
func (d *Deployed) InputDim() int { return d.dim }

func (d *Deployed) session() *inferSession {
	if s, ok := d.pool.Get().(*inferSession); ok {
		return s
	}
	return &inferSession{m: d.m.Clone()}
}

func (d *Deployed) release(s *inferSession) { d.pool.Put(s) }

// Predict returns the predicted class for one flat feature vector.
func (d *Deployed) Predict(features []float64) (int, error) {
	if len(features) != d.dim {
		return 0, fmt.Errorf("fedtrans: feature dim %d, model expects %d", len(features), d.dim)
	}
	s := d.session()
	x := s.ensureIn(1, d.dim)
	for i, v := range features {
		x.Data[i] = tensor.Float(v)
	}
	class := s.m.Forward(x).ArgMaxRow(0)
	d.release(s)
	return class, nil
}

// PredictBatch classifies a batch of flat feature vectors in one
// forward pass: rows are validated up front, packed into the session's
// contiguous input buffer, and pushed through the strided-batch kernels
// together — one Forward for the whole batch, not one per row.
func (d *Deployed) PredictBatch(features [][]float64) ([]int, error) {
	for i, f := range features {
		if len(f) != d.dim {
			return nil, fmt.Errorf("fedtrans: row %d feature dim %d, model expects %d", i, len(f), d.dim)
		}
	}
	if len(features) == 0 {
		return nil, nil
	}
	s := d.session()
	x := s.ensureIn(len(features), d.dim)
	for i, f := range features {
		row := x.Data[i*d.dim : (i+1)*d.dim]
		for j, v := range f {
			row[j] = tensor.Float(v)
		}
	}
	logits := s.m.Forward(x)
	out := make([]int, len(features))
	for i := range out {
		out[i] = logits.ArgMaxRow(i)
	}
	d.release(s)
	return out, nil
}

// Info describes the deployed model.
func (d *Deployed) Info() ModelInfo {
	return ModelInfo{Arch: d.m.ArchString(), MACs: d.m.MACsPerSample(), Params: d.m.ParamCount()}
}
