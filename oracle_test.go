package fedtrans

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedtrans/internal/fl"
	"fedtrans/internal/tensor"
)

// oracleDraw is one drawn configuration of the determinism oracle: the
// Options every arm runs, the kernel tier all of them run at, and what
// the arms that change how the run executes vary.
type oracleDraw struct {
	o       Options
	tier    tensor.SIMDLevel
	workers int  // agent workers of the networked arm
	every   int  // CheckpointEvery of the checkpointing arm, in [1, Rounds)
	clamped bool // the drawn tier was above the host's, so tier is not it
}

var oracleProfiles = []string{"femnist", "cifar10", "speech", "openimage", "vit", "scale"}

// drawOracle draws a configuration from seed: Options drawn field by
// field and rejected until Options.validate accepts them. The draw is
// the same on every host; only the tier is clamped to what the host
// runs.
func drawOracle(seed uint64) oracleDraw {
	r := rand.New(rand.NewSource(int64(seed)))
	coin := func() bool { return r.Intn(2) == 0 }
	rate := func(top float64) float64 {
		if coin() {
			return 0
		}
		return top * r.Float64()
	}
	for {
		o := DefaultOptions()
		o.Profile = oracleProfiles[r.Intn(len(oracleProfiles))]
		o.AttentionHeads = []int{0, 1, 2, 4}[r.Intn(4)]
		o.Clients = 3 + r.Intn(10)
		o.ClientsPerRound = 1 + r.Intn(6)
		o.Rounds = 2 + r.Intn(4)
		o.LocalSteps = 1 + r.Intn(3)
		o.BatchSize = 2 + r.Intn(7)
		o.Seed = r.Int63n(1 << 20)
		o.Heterogeneity = 0.3 + 2*r.Float64()
		o.Gamma, o.Delta = 1+r.Intn(2), 1+r.Intn(2)
		o.Beta = []float64{0.025, 0.5, 5}[r.Intn(3)]
		o.WidenFactor = []float64{1.5, 2}[r.Intn(2)]
		o.DeepenCells = 1 + r.Intn(2)
		o.CapacitySpread = 1 + 40*r.Float64()
		o.AllowL2S = coin()
		if coin() {
			o.MaxStaleness = 1 + r.Intn(3)
			o.AsyncConcurrency = r.Intn(3 * o.ClientsPerRound)
		}
		o.Quorum = rate(1)
		o.RetryBudget = r.Intn(3)
		o.Chaos = ChaosOptions{
			CrashRate: rate(0.3), CorruptRate: rate(0.15), NonFiniteRate: rate(0.15),
			StragglerRate: rate(0.3), StragglerDelay: 50 * r.Float64(),
		}
		if coin() {
			o.EvalSample = 1 + r.Intn(o.Clients+2)
		}
		tier := tensor.SIMDLevel(r.Intn(3))
		d := oracleDraw{
			o:       o,
			tier:    min(tier, tensor.SIMDSupported()),
			workers: 1 + r.Intn(3),
			every:   1 + r.Intn(o.Rounds-1),
			clamped: tier > tensor.SIMDSupported(),
		}
		if o.validate() == nil {
			return d
		}
	}
}

// readFrame reads one FTNC frame whole: its length word and the bytes
// the word counts.
func readFrame(r io.Reader) ([]byte, error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, err
	}
	f := append(n[:], make([]byte, binary.BigEndian.Uint32(n[:]))...)
	_, err := io.ReadFull(r, f[4:])
	return f, err
}

// redialRelay stands between an agent pool and a coordinator. It hangs
// up on the first agent connection over each coordinator connection
// right after the WELCOME, at a frame boundary, and answers the agent's
// redial with the same WELCOME, spliced onto that coordinator
// connection. The coordinator sees no fault, so the run stays
// byte-identical — unless an agent takes the hang-up for the end of the
// run and strands the coordinator connection it leaves behind.
type redialRelay struct {
	ln     net.Listener
	coord  string
	parked chan parkedConn
	wg     sync.WaitGroup
}

type parkedConn struct {
	coord   net.Conn
	welcome []byte
}

// newRedialRelay relays to coord for a pool of workers workers. Each
// parks at most one coordinator connection at a time, so parking never
// blocks.
func newRedialRelay(t *testing.T, coord string, workers int) *redialRelay {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &redialRelay{ln: ln, coord: coord, parked: make(chan parkedConn, workers)}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			agent, err := ln.Accept()
			if err != nil {
				return
			}
			r.wg.Add(1)
			go r.serve(agent)
		}
	}()
	return r
}

func (r *redialRelay) serve(agent net.Conn) {
	defer r.wg.Done()
	defer agent.Close()
	hello, err := readFrame(agent)
	if err != nil {
		return
	}
	select {
	case p := <-r.parked:
		defer p.coord.Close()
		if _, err := agent.Write(p.welcome); err != nil {
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			io.Copy(p.coord, agent)
			p.coord.Close()
		}()
		io.Copy(agent, p.coord)
	default:
		coord, err := net.Dial("tcp", r.coord)
		if err != nil {
			return
		}
		var welcome []byte
		if _, err = coord.Write(hello); err == nil {
			welcome, err = readFrame(coord)
		}
		if err == nil {
			_, err = agent.Write(welcome)
		}
		if err != nil {
			coord.Close()
			return
		}
		r.parked <- parkedConn{coord, welcome}
	}
}

func (r *redialRelay) close() {
	r.ln.Close()
	r.wg.Wait()
	for len(r.parked) > 0 {
		(<-r.parked).coord.Close()
	}
}

// oracleRun runs one session and returns its Summary and its post-run
// checkpoint. A networked session (ServeAddr) is served by an agent pool
// of workers workers behind a redialRelay.
func oracleRun(t *testing.T, o Options, workers int) (Summary, []byte) {
	t.Helper()
	s, err := NewSession(o)
	if err != nil {
		t.Fatalf("NewSession(%+v): %v", o, err)
	}
	agents := make(chan error, 1)
	if o.ServeAddr != "" {
		relay := newRedialRelay(t, s.CoordinatorAddr(), workers)
		defer relay.close()
		go func() { agents <- RunAgent(relay.ln.Addr().String(), workers) }()
	} else {
		agents <- nil
	}
	done := make(chan Summary, 1)
	go func() { done <- s.Run() }()
	var sum Summary
	select {
	case sum = <-done:
	case <-time.After(30 * time.Second):
		s.Close()
		t.Fatalf("%+v: the session hung", o)
	}
	if err := <-agents; err != nil {
		t.Fatalf("RunAgent: %v", err)
	}
	if err := s.CheckpointError(); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return sum, ck
}

// checkOracle runs d's reference on one core, then every arm, each of
// which must reproduce the reference's Summary and post-run checkpoint
// byte for byte:
//   - four cores, writing checkpoints every d.every rounds;
//   - a generative population of the same size;
//   - an agent pool of d.workers workers over loopback, when the
//     reference trained at all (a session that trains nothing ends
//     before its agents dial, and they wait out their dial budget);
//   - a session resumed from the last checkpoint the first arm wrote.
//
// It returns what the draw covered, in the coverage check's terms, and
// the reference's digest: summaryDigest of its Summary, followed by its
// checkpoint bytes.
func checkOracle(t *testing.T, d oracleDraw) (covered []string, digest uint64) {
	defer tensor.SetSIMDLevel(tensor.SetSIMDLevel(d.tier))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	path := filepath.Join(t.TempDir(), "ck")
	want, wantCk := oracleRun(t, d.o, 0)
	check := func(arm string, sum Summary, ck []byte) {
		t.Helper()
		if !reflect.DeepEqual(want, sum) {
			t.Fatalf("%s: Summary diverged from the reference\n%+v\nreference %+v\nsummary   %+v", arm, d, want, sum)
		}
		if !bytes.Equal(wantCk, ck) {
			t.Fatalf("%s: checkpoint diverged from the reference (%d vs %d bytes)\n%+v", arm, len(ck), len(wantCk), d)
		}
	}
	for _, arm := range []struct {
		name  string
		procs int
		set   func(o *Options)
	}{
		{"GOMAXPROCS 4, checkpointing", 4, func(o *Options) { o.CheckpointPath, o.CheckpointEvery = path, d.every }},
		{"generative population", 1, func(o *Options) { o.Population = o.Clients }},
		{fmt.Sprintf("networked, %d agent workers", d.workers), 1, func(o *Options) { o.ServeAddr = "127.0.0.1:0" }},
	} {
		o := d.o
		arm.set(&o)
		if o.ServeAddr != "" && want.TrainMACs == 0 {
			continue
		}
		runtime.GOMAXPROCS(arm.procs)
		sum, ck := oracleRun(t, o, d.workers)
		check(arm.name, sum, ck)
	}
	runtime.GOMAXPROCS(1)

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no checkpoint written at every %d of %d rounds: %v", d.every, d.o.Rounds, err)
	}
	ck, err := fl.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(d.o)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Resume(blob)
	if err != nil {
		t.Fatalf("resume at round %d: %v", ck.Round, err)
	}
	resumedCk, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	check(fmt.Sprintf("resumed at round %d", ck.Round), sum, resumedCk)

	covered = []string{"profile " + d.o.Profile, "tier " + d.tier.String()}
	for what, ok := range map[string]bool{
		"in-flight resume": len(ck.Inflight) > 0,
		"transform":        len(want.Models) > 1,
		"aborted round":    want.AbortedRounds > 0,
		"retry":            want.Retries > 0,
	} {
		if ok {
			covered = append(covered, what)
		}
	}
	h := summaryDigest(want, func(int) []byte { return nil })
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(wantCk))))
	h.Write(wantCk)
	return covered, h.Sum64()
}

// oracleCorpus is the seed corpus tier-1 runs; the CI fuzz job draws
// beyond it. Together its draws cover every profile, every kernel tier,
// a resume from an asynchronous checkpoint with dispatches in flight, a
// transformation, an aborted round and a retry, and
// FuzzDeterminismOracle fails when they stop doing so.
var oracleCorpus = []uint64{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
	13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
}

// oracleGoldens pins each corpus seed's reference run in absolute terms
// (checkOracle's digest), so a change that moves every arm at once
// still fails. The digests hold on amd64 for draws whose tier the host
// runs as drawn; other draws log theirs.
var oracleGoldens = map[uint64]uint64{
	1: 0x7b1000afa706b9ef, 2: 0x96190c39760b568b, 3: 0xe5682f213892d78b,
	4: 0x4b7e09e86f32e282, 5: 0x65523903d745b189, 6: 0x6672176c5ad4458f,
	7: 0x671222d12c29cad1, 8: 0xebe0520a97f448d0, 9: 0x1949b5ee16138d9e,
	10: 0xa6bdde6c5e330aa6, 11: 0xac3db3ae0ee64538, 12: 0x8eebb0b96cd36ae1,
	13: 0xd4511a2416faa873, 14: 0x57cd431e0df65686, 15: 0x493f7b570e1a2c2e,
	16: 0x16761c6de90a9474, 17: 0xb26b3f38a16d99f7, 18: 0x4f626747db31e7d2,
	19: 0xb8fcb86fb154037e, 20: 0x569994ddb7f83cdf, 21: 0x2f663e9fdf9e6841,
	22: 0x2729228ecc526d12, 23: 0x5419ced97df97d44, 24: 0x806dfddcab7c2a3f,
}

// oracleSeen holds what each seed that ran covered.
var (
	oracleMu   sync.Mutex
	oracleSeen = map[uint64][]string{}
)

// FuzzDeterminismOracle draws a configuration from the seed and checks
// that every way this repository can execute it — serial or parallel,
// materialized or generative, in process or over
// the wire, straight through or resumed — yields the same Summary and
// the same checkpoint bytes. A failing input reruns alone with
// go test -run=FuzzDeterminismOracle/<seed#N or corpus file>.
func FuzzDeterminismOracle(f *testing.F) {
	for _, seed := range oracleCorpus {
		f.Add(seed)
	}
	f.Cleanup(func() { checkOracleCoverage(f) })
	f.Fuzz(func(t *testing.T, seed uint64) {
		d := drawOracle(seed)
		covered, digest := checkOracle(t, d)
		if want, ok := oracleGoldens[seed]; ok {
			switch {
			case d.clamped || runtime.GOARCH != "amd64":
				t.Logf("seed %d: digest %#x (not pinned: drawn tier clamped, or not amd64)", seed, digest)
			case digest != want:
				t.Errorf("seed %d: reference digest %#x, golden %#x", seed, digest, want)
			}
		}
		oracleMu.Lock()
		oracleSeen[seed] = covered
		oracleMu.Unlock()
	})
}

// checkOracleCoverage fails the fuzz target when the seed corpus ran in
// full and missed something it must cover. It says nothing when only
// part of the corpus ran (a -run filter, or fuzzing workers).
func checkOracleCoverage(t testing.TB) {
	oracleMu.Lock()
	defer oracleMu.Unlock()
	covered := map[string]bool{}
	for _, seed := range oracleCorpus {
		whats, ran := oracleSeen[seed]
		if !ran {
			return
		}
		for _, what := range whats {
			covered[what] = true
		}
	}
	need := []string{"in-flight resume", "transform", "aborted round", "retry"}
	for _, p := range oracleProfiles {
		need = append(need, "profile "+p)
	}
	for tier := tensor.SIMDGeneric; tier <= tensor.SIMDSupported(); tier++ {
		need = append(need, "tier "+tier.String())
	}
	for _, what := range need {
		if !covered[what] {
			t.Errorf("the oracle corpus covers no %s", what)
		}
	}
}
