package main

import (
	"fmt"
	"math"
	"path/filepath"

	"fedtrans"
)

// counts are the quantities of one training session that repeat exactly
// for a given sub-seed: what the paper reports beside wall-clock speed.
type counts struct {
	accuracy   float64 // Summary.MeanAccuracy
	gmacs      float64 // Summary.TrainMACs / 1e9
	networkMB  float64 // Summary.NetworkBytes / 1e6
	simSeconds float64 // Summary.WallClock (simulated device time)
}

func countsOf(s fedtrans.Summary) counts {
	return counts{s.MeanAccuracy, s.TrainMACs / 1e9, float64(s.NetworkBytes) / 1e6, s.WallClock}
}

// segment is one timed unit of work: a whole training session, or one
// fixed block of prediction frames.
type segment struct {
	meter
	ops    int64  // client updates committed, or rows classified
	rounds int64  // training rounds run (0 when serving)
	frames int64  // prediction frames answered (0 when training)
	failed int64  // operations whose output was wrong
	counts counts // of the sub-seed's training session
	// check must repeat exactly on every segment of the same sub-seed
	// (nil: the segment verified its own outputs and counted failures).
	check any
	// latency is the per-operation latency in ns of every timed
	// operation, where the workload has operations a caller waits for.
	latency []int64
}

// A workload runs segments over a panel of sub-seeds derived from
// -seed. One session's accuracy, cost and speed swing by 15–25 % from
// seed to seed, so a run reports panel aggregates: that is what keeps
// the spread between -seed values inside the bounds.
type workload interface {
	// panel is the number of sub-seeds; the session counts are means over
	// every member that ran.
	panel() int
	// timed is the number of members, from 0, that the timed part repeats;
	// the others run once each, as the warm-up segments of set-up. The
	// compute-bound workloads time few members, so that each is repeated
	// four times or more and has a repetition the host left alone.
	timed() int
	// warmups is the number of untimed segments in one set-up repetition.
	warmups() int
	// prepare is the part of set-up done once per run.
	prepare() error
	// rep is the part of set-up repeated before each round of warm-up
	// segments. A non-nil check is the reference for sub-seed 0.
	rep() (check any, err error)
	// run executes one segment on sub-seed j, with spans under parent.
	run(j int, tr *tracer, parent int) (segment, error)
	// accuracyFloor is 0.8 × the lowest panel accuracy seen at the commit
	// that defined the benchmark (seeds 1–20).
	accuracyFloor() float64
	// deployable returns the Options of sub-seed 0 and two models that
	// session trains, exported, for the layer replay to rebuild: the
	// largest, and the one whose MACs per sample are nearest the mean over
	// everything the session trained (the model of a typical update).
	// scale is that mean over the typical model's MACs.
	deployable() (o fedtrans.Options, largest, typical []byte, scale float64, err error)
}

// subSeed is the Options.Seed of panel member j. Distinct -seed values
// give disjoint panels.
func subSeed(seed int64, j int) int64 { return seed*1000 + int64(j) + 1 }

// agentWorkers is the size of the agent pool and the number of serving
// connections: two, so offered load never exceeds the two cores the
// bounds were measured on.
const agentWorkers = 2

type trainWorkload struct {
	k       int
	floor   float64
	options fedtrans.Options // Seed is filled per sub-seed
	seed    int64
	smoke   bool
}

func (w *trainWorkload) panel() int             { return w.k + setupReps*w.warmups() }
func (w *trainWorkload) timed() int             { return w.k }
func (w *trainWorkload) warmups() int           { return 2 }
func (w *trainWorkload) accuracyFloor() float64 { return w.floor }
func (w *trainWorkload) prepare() error         { return nil }

func (w *trainWorkload) opts(j int) fedtrans.Options {
	o := w.options
	o.Seed = subSeed(w.seed, j)
	if w.smoke {
		o.Rounds = 3
		if o.Population > 0 {
			o.Population, o.ClientsPerRound, o.EvalSample, o.CheckpointEvery = 2000, 40, 20, 1
		}
	}
	return o
}

// rep runs sub-seed 0 in-process when the workload is networked: the
// networked Summary must equal it field for field. That is also how
// absorbed wire errors surface, since the hub's error log has no public
// accessor.
func (w *trainWorkload) rep() (any, error) {
	o := w.opts(0)
	if o.ServeAddr == "" {
		return nil, nil
	}
	o.ServeAddr = ""
	sum, err := fedtrans.Run(o)
	if err != nil {
		return nil, err
	}
	return sum, nil
}

func (w *trainWorkload) deployable() (o fedtrans.Options, big, typical []byte, scale float64, err error) {
	o = w.opts(0)
	inProcess := o
	inProcess.ServeAddr = ""
	s, err := fedtrans.NewSession(inProcess)
	if err != nil {
		return o, nil, nil, 0, err
	}
	sum := s.Run()
	// Summary.TrainMACs charges 3 × forward MACs per trained sample.
	trained := 3 * float64(sum.Rounds*o.ClientsPerRound*o.LocalSteps*o.BatchSize)
	mean, near := sum.TrainMACs/trained, 0
	for i, m := range sum.Models {
		if math.Abs(m.MACs-mean) < math.Abs(sum.Models[near].MACs-mean) {
			near = i
		}
	}
	if big, err = s.ExportModel(largest(sum.Models)); err != nil {
		return o, nil, nil, 0, err
	}
	typical, err = s.ExportModel(near)
	return o, big, typical, mean / sum.Models[near].MACs, err
}

// largest is the index of the model with the most MACs per sample.
func largest(models []fedtrans.ModelInfo) int {
	best := 0
	for i, m := range models {
		if m.MACs > models[best].MACs {
			best = i
		}
	}
	return best
}

func (w *trainWorkload) run(j int, tr *tracer, parent int) (segment, error) {
	var (
		seg      segment
		s        *fedtrans.Session
		sum      fedtrans.Summary
		err      error
		agentErr chan error
	)
	o := w.opts(j)
	seg.start()
	tr.do(parent, "fedtrans.NewSession", func() { s, err = fedtrans.NewSession(o) })
	if err != nil {
		return seg, err
	}
	if addr := s.CoordinatorAddr(); addr != "" {
		agentErr = make(chan error, 1)
		go func() {
			id := tr.begin(parent, "fedtrans.RunAgent")
			agentErr <- fedtrans.RunAgent(addr, agentWorkers)
			tr.end(id)
		}()
	}
	tr.do(parent, "fedtrans.Session.Run", func() { sum = s.Run() })
	if agentErr != nil {
		err = <-agentErr
	}
	seg.stop()
	if err != nil {
		return seg, fmt.Errorf("RunAgent: %w", err)
	}
	if err := s.CheckpointError(); err != nil {
		return seg, err
	}
	seg.rounds = int64(sum.Rounds)
	seg.ops = seg.rounds * int64(o.ClientsPerRound)
	seg.counts = countsOf(sum)
	seg.check = sum
	return seg, nil
}

// newWorkload builds one of the five; dir takes the checkpoints. The
// compute-bound workloads time 4 members 4–7 times each; the
// coordinator-bound ones, which a lost core slows far less, time a
// wider panel once or twice.
func newWorkload(name string, seed int64, smoke bool, dir string) (workload, error) {
	t := &trainWorkload{seed: seed, smoke: smoke, options: fedtrans.DefaultOptions()}
	o := &t.options
	switch name {
	case "train_conv":
		t.k, t.floor = 4, 0.251
		o.Profile, o.Rounds = "cifar10", 30
	case "train_attn":
		t.k, t.floor = 4, 0.154
		o.Profile, o.AttentionHeads, o.Rounds = "vit", 4, 30
	case "round_scale":
		t.k, t.floor = 20, 0.117
		*o = fedtrans.ScaleOptions()
		o.Population, o.EdgeAggregators, o.EvalSample = 100_000, 4, 200
		o.CheckpointPath, o.CheckpointEvery = filepath.Join(dir, "ck"), 5
	case "split_async":
		t.k, t.floor = 36, 0.105
		*o = fedtrans.ScaleOptions()
		o.Population, o.EvalSample, o.ClientsPerRound = 100_000, 200, 500
		o.MaxStaleness, o.Quorum, o.RetryBudget = 2, 0.5, 1
		o.Chaos = fedtrans.ChaosOptions{CrashRate: .05, StragglerRate: .1, StragglerDelay: 30}
		o.ServeAddr = "127.0.0.1:0"
	case "serve_tcp":
		return newServeWorkload(seed, smoke), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if smoke {
		t.k, t.floor = 1, 0
	}
	return t, nil
}

var workloadNames = []string{"train_conv", "train_attn", "round_scale", "split_async", "serve_tcp"}
