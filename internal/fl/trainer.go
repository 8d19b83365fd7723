package fl

import (
	"fedtrans/internal/data"
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

// TrainSpec identifies one local-training attempt. It is everything a
// remote agent needs — besides the model weights and LocalConfig — to
// reproduce the in-process training bit-for-bit: local training is a
// pure function of (weights, architecture, client shard, seed), and
// Seed is the exact attempt-salted value the in-process session would
// reseed with.
type TrainSpec struct {
	Round   int
	Attempt int
	Client  int
	Seed    int64
}

// Trainer runs client local training somewhere other than the runtime's
// in-process session pool — the hook behind the networked coordinator
// (internal/netcoord). Train must leave the trained weights in upload
// (shaped like m.Params()) and return the mean training loss and the
// client's sample count. A non-nil error marks the attempt as failed at
// the transport layer: the runtime charges the download and runs its
// normal retry/quorum machinery, exactly as for an injected chaos
// fault. m is only read.
//
// A Trainer must be safe for concurrent calls: the round engine runs up
// to GOMAXPROCS attempts at once, its stream's workers plus the
// consumer.
type Trainer interface {
	Train(m *model.Model, spec TrainSpec, cfg LocalConfig, upload []*tensor.Tensor) (loss float64, samples int, err error)
}

// ClientTrainer is the agent-side training harness: a pooled local
// session bound to one downloaded model, exactly the localSession the
// in-process coordinator trains with. The agent refreshes the model's
// weights from each request's FTW1 blob (codec.DecodeInto into
// Model().Params()) and calls Train with the request's spec — the
// result is bit-identical to the coordinator training the same client
// in-process.
type ClientTrainer struct {
	ds   *data.Dataset
	m    *model.Model
	sess *localSession
}

// NewClientTrainer builds the harness for one model. The model should
// be a scoped unmarshal of the coordinator's MODEL frame; its weights
// are overwritten before every request.
func NewClientTrainer(ds *data.Dataset, m *model.Model) *ClientTrainer {
	return &ClientTrainer{ds: ds, m: m, sess: newLocalSession(m)}
}

// Model returns the model whose weights each request refreshes.
func (t *ClientTrainer) Model() *model.Model { return t.m }

// Train runs one local-training pass for the client with the given
// attempt-salted seed, filling upload with the trained weights.
func (t *ClientTrainer) Train(client int, cfg LocalConfig, seed int64, upload []*tensor.Tensor) (loss float64, samples int) {
	return t.sess.run(t.m, t.ds.FetchTrain(&t.sess.cur, client), cfg, seed, upload)
}
