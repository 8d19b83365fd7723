package netcoord

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"fedtrans/internal/codec"
	"fedtrans/internal/data"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

// trainReq is the fixed part of a TRAIN frame, written out field by
// field below so the test pins the FTNC/1 offsets independently of the
// hub's encoder.
type trainReq struct {
	model, client uint32
	seed          uint64
	flags         byte
	steps, batch  uint32
	lr, proxMu    float64
}

func (r trainReq) payload(weights []byte) []byte {
	p := make([]byte, 41, 41+len(weights))
	binary.BigEndian.PutUint32(p[0:], r.model)
	binary.BigEndian.PutUint32(p[4:], r.client)
	binary.BigEndian.PutUint64(p[8:], r.seed)
	p[16] = r.flags
	binary.BigEndian.PutUint32(p[17:], r.steps)
	binary.BigEndian.PutUint32(p[21:], r.batch)
	binary.BigEndian.PutUint64(p[25:], math.Float64bits(r.lr))
	binary.BigEndian.PutUint64(p[33:], math.Float64bits(r.proxMu))
	return append(p, weights...)
}

func uploadLike(m *model.Model) []*tensor.Tensor {
	up := make([]*tensor.Tensor, 0, len(m.Params()))
	for _, p := range m.Params() {
		up = append(up, tensor.New(p.Shape...))
	}
	return up
}

// TestTrainFrames plays the coordinator against serveConn with literal
// frames. A dense request is answered by status 0 | float64 loss |
// uint32 samples | kind 0 | FTW1 weights at exactly those offsets,
// bit-equal to ClientTrainer.Train in-process. Each malformed request —
// reserved flags set, an empty batch, a client outside the population,
// an unknown model — is answered by a status-1 TRAINRES, and the same
// connection serves a valid request afterwards (the empty batch and the
// out-of-range client used to panic the agent process).
func TestTrainFrames(t *testing.T) {
	ds := data.Generate(loopDataCfg())
	m := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes).Build(rand.New(rand.NewSource(1)))
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	weights := codec.AppendEncode(nil, m.Params())
	good := trainReq{model: 7, client: 3, seed: 99, steps: 2, batch: 4, lr: 0.05}

	// The reference: what the agent's harness computes for the good request.
	refModel, err := model.UnmarshalModelScoped(blob, model.NewIDGen())
	if err != nil {
		t.Fatal(err)
	}
	refUp := uploadLike(refModel)
	loss, samples := fl.NewClientTrainer(ds, refModel).Train(int(good.client),
		fl.LocalConfig{Steps: int(good.steps), BatchSize: int(good.batch), LR: good.lr}, int64(good.seed), refUp)
	want := []byte{0}
	want = binary.BigEndian.AppendUint64(want, math.Float64bits(loss))
	want = binary.BigEndian.AppendUint32(want, uint32(samples))
	want = append(want, 0)
	want = codec.AppendEncode(want, refUp)

	coord, agent := net.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- serveConn(agent, func(RunConfig) *data.Dataset { return ds })
	}()
	fc := newFrameConnTimeout(coord, 5*time.Second)
	if ft, p, err := fc.read(); err != nil || ft != ftHello || !bytes.Equal(p, []byte("FTNC\x00\x01")) {
		t.Fatalf("HELLO: frame 0x%02x %q, err %v", ft, p, err)
	}
	rc, _ := json.Marshal(RunConfig{Data: loopDataCfg()})
	if err := fc.write(ftWelcome, append([]byte{0, ProtoVersion}, rc...)); err != nil {
		t.Fatal(err)
	}
	if err := fc.write(ftModel, append(binary.BigEndian.AppendUint32(nil, good.model), blob...)); err != nil {
		t.Fatal(err)
	}

	exchange := func(r trainReq) []byte {
		t.Helper()
		if err := fc.write(ftTrain, r.payload(weights)); err != nil {
			t.Fatal(err)
		}
		ft, p, err := fc.read()
		if err != nil || ft != ftTrainRes || len(p) == 0 {
			t.Fatalf("TRAINRES: frame 0x%02x, %d bytes, err %v", ft, len(p), err)
		}
		return p
	}
	checkGood := func(after string) {
		t.Helper()
		p := exchange(good)
		if len(p) < 18 || p[0] != 0 || p[13] != 0 || string(p[14:18]) != "FTW1" {
			t.Fatalf("%s: TRAINRES % x…, want status 0 at [0], kind 0 at [13], FTW1 at [14:18]", after, p[:min(len(p), 18)])
		}
		if got := math.Float64frombits(binary.BigEndian.Uint64(p[1:9])); got != loss {
			t.Errorf("%s: loss at [1:9] = %v, want %v", after, got, loss)
		}
		if got := binary.BigEndian.Uint32(p[9:13]); int(got) != samples {
			t.Errorf("%s: samples at [9:13] = %d, want %d", after, got, samples)
		}
		if !bytes.Equal(p, want) {
			t.Errorf("%s: TRAINRES differs from in-process training", after)
		}
	}

	checkGood("first request")
	for _, tc := range []struct {
		name string
		bad  func(*trainReq)
	}{
		{"flags = 1", func(r *trainReq) { r.flags = 1 }},
		{"batch = 0", func(r *trainReq) { r.batch = 0 }},
		{"steps = 0", func(r *trainReq) { r.steps = 0 }},
		{"client = population", func(r *trainReq) { r.client = loopClients }},
		{"lr = NaN", func(r *trainReq) { r.lr = math.NaN() }},
		{"unknown model", func(r *trainReq) { r.model = 8 }},
	} {
		r := good
		tc.bad(&r)
		if p := exchange(r); p[0] != 1 || len(p) < 2 {
			t.Fatalf("%s: TRAINRES % x…, want status 1 and a message", tc.name, p[:min(len(p), 18)])
		}
		checkGood("after " + tc.name)
	}

	coord.Close()
	if err := <-served; err != nil && !errors.Is(err, errReconnect) {
		t.Errorf("agent connection ended with %v", err)
	}
}

// TestAgentSurvivesHostileModelFrame: a MODEL frame the loader must
// refuse ends the connection with the loader's error. The 64-byte blob
// whose weight part claims 2³²−1 tensors used to end the agent process
// with a fatal out-of-memory; the blobs whose second cell does not take
// what the first emits (one per cell family: a narrow model's header and
// first cell over a wider model's remaining tensors) used to load, and
// panic a worker at the first TRAIN; the blobs whose input no weight
// bounds used to load too.
func TestAgentSurvivesHostileModelFrame(t *testing.T) {
	type hostile struct {
		name string
		blob []byte
		want error
	}
	cases := []hostile{{"2³²−1 tensors", []byte("\x00\x00\x00\x30" + `{"version":1,"input":[4],"classes":2,"cells":[]}` +
		"FTW1\xff\xff\xff\xff\x0e\x3b\x50\x3d"), codec.ErrTruncated}}
	for _, pair := range [][2]model.Spec{
		{{Family: "dense", Input: []int{4}, Hidden: []int{3, 3}, Classes: 2}, {Family: "dense", Input: []int{4}, Hidden: []int{5, 5}, Classes: 2}},
		{{Family: "conv", Input: []int{2, 6, 6}, Hidden: []int{3, 3}, Classes: 2}, {Family: "conv", Input: []int{2, 6, 6}, Hidden: []int{5, 5}, Classes: 2}},
		{{Family: "attention", Input: []int{2, 4}, Hidden: []int{4, 4}, Classes: 2}, {Family: "attention", Input: []int{2, 6}, Hidden: []int{4, 4}, Classes: 2}},
		{{Family: "residual", Input: []int{4}, Hidden: []int{3, 3}, Classes: 2}, {Family: "residual", Input: []int{6}, Hidden: []int{3, 3}, Classes: 2}},
	} {
		a := pair[0].BuildScoped(rand.New(rand.NewSource(1)), model.NewIDGen())
		b := pair[1].BuildScoped(rand.New(rand.NewSource(1)), model.NewIDGen())
		blob, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		hdr := 4 + int(binary.BigEndian.Uint32(blob))
		first := len(a.Cells[0].Cell.Params())
		mixed := codec.AppendEncode(blob[:hdr:hdr], append(a.Params()[:first:first], b.Params()[first:]...))
		cases = append(cases, hostile{pair[0].Family + " cells that do not chain", mixed, model.ErrCorruptModel})
	}
	for _, tc := range []struct {
		name, header string
		shapes       [][]int
	}{
		{"conv input of 2⁶² pixels", `{"version":1,"input":[2,2147483648,2147483648],"classes":3,"cells":[{"kind":"conv2d"},{"kind":"gap"}]}`,
			[][]int{{4, 2, 3, 3}, {4}, {4, 3}, {3}}},
		{"attention input of 2⁴⁰ tokens", `{"version":1,"input":[1099511627776,4],"classes":2,"cells":[{"kind":"attention"},{"kind":"meantokens"}]}`,
			[][]int{{4, 4}, {4, 4}, {4, 4}, {4, 4}, {4, 8}, {8}, {8, 4}, {4}, {4, 2}, {2}}},
	} {
		ws := make([]*tensor.Tensor, len(tc.shapes))
		for i, s := range tc.shapes {
			ws[i] = tensor.New(s...)
		}
		blob := codec.AppendEncode(append(binary.BigEndian.AppendUint32(nil, uint32(len(tc.header))), tc.header...), ws)
		cases = append(cases, hostile{tc.name, blob, model.ErrCorruptModel})
	}
	ds := data.Generate(loopDataCfg())
	rc, _ := json.Marshal(RunConfig{Data: loopDataCfg()})
	for _, tc := range cases {
		coord, agent := net.Pipe()
		served := make(chan error, 1)
		go func() {
			served <- serveConn(agent, func(RunConfig) *data.Dataset { return ds })
		}()
		fc := newFrameConnTimeout(coord, 5*time.Second)
		if ft, _, err := fc.read(); err != nil || ft != ftHello {
			t.Fatalf("HELLO: frame 0x%02x, err %v", ft, err)
		}
		if err := fc.write(ftWelcome, append([]byte{0, ProtoVersion}, rc...)); err != nil {
			t.Fatal(err)
		}
		if err := fc.write(ftModel, append([]byte{0, 0, 0, 7}, tc.blob...)); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-served:
			if !errors.Is(err, tc.want) {
				t.Errorf("%s: agent connection ended with %v, want %v", tc.name, err, tc.want)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: the agent accepted the MODEL frame", tc.name)
		}
		coord.Close()
	}
}

// TestHubRejectsUnknownKind: an agent answering with TRAINRES kind 1
// (the removed 8-bit payload) costs the hub one ErrProtocol and its
// connection; the retried attempt is served by another agent.
func TestHubRejectsUnknownKind(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", RunConfig{Data: loopDataCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	fake := handshakeAsAgent(t, hub.Addr())
	defer fake.close()
	fakeDone := make(chan struct{})
	go func() {
		defer close(fakeDone)
		for {
			ft, _, err := fake.readIdle()
			if err != nil {
				return // dropped by the hub
			}
			if ft == ftTrain {
				res := make([]byte, 14)
				res[13] = 1
				fake.write(ftTrainRes, res)
			}
		}
	}()

	ds := data.Generate(loopDataCfg())
	m := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes).Build(rand.New(rand.NewSource(1)))
	upload := uploadLike(m)
	spec, local := fl.TrainSpec{Round: 1, Client: 0, Seed: 7}, fl.LocalConfig{Steps: 1, BatchSize: 2, LR: 0.05}
	if _, _, err := hub.Train(m, spec, local, upload); !errors.Is(err, ErrProtocol) {
		t.Fatalf("kind 1 surfaced %v, want ErrProtocol", err)
	}
	if n := hub.WireErrorCount(); n != 1 {
		t.Errorf("hub counted %d wire faults, want 1", n)
	}
	<-fakeDone

	agents := make(chan error, 1)
	go func() { agents <- RunAgents(AgentConfig{Addr: hub.Addr(), Workers: 1}) }()
	spec.Attempt = 1
	if _, samples, err := hub.Train(m, spec, local, upload); err != nil || samples == 0 {
		t.Fatalf("retry through a real agent: samples %d, err %v", samples, err)
	}
	hub.Close()
	if err := <-agents; err != nil {
		t.Errorf("agents exited with: %v", err)
	}
}
