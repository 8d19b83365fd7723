package layers

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fedtrans/internal/fl"
	"fedtrans/internal/netcoord"
)

// must stops the replay on an error loopback cannot produce on its own.
func must(err error) {
	if err != nil {
		panic("layers: " + err.Error())
	}
}

// relay forwards TCP connections to target and counts the bytes that
// cross it in both directions.
type relay struct {
	ln    net.Listener
	bytes atomic.Int64
	wg    sync.WaitGroup
}

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			r.wg.Add(2)
			go r.pipe(out, in)
			go r.pipe(in, out)
		}
	}()
	return r, nil
}

// counted adds what passes through Write to the relay's byte count.
type counted struct {
	net.Conn
	n *atomic.Int64
}

func (c counted) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

func (r *relay) pipe(dst, src net.Conn) {
	defer r.wg.Done()
	io.Copy(counted{dst, &r.bytes}, src)
	dst.Close()
	src.Close()
}

func (r *relay) close() {
	r.ln.Close()
	r.wg.Wait()
}

// pool is a hub with one connected agent worker.
type pool struct {
	hub   *netcoord.Hub
	relay *relay
	done  chan error
}

func newPool(w *world, viaRelay bool) (*pool, error) {
	cfg := w.cfg
	hub, err := netcoord.NewHub("127.0.0.1:0", netcoord.RunConfig{
		Data:       dataConfig(cfg.Profile, w.ds.Len(), cfg.Seed),
		Generative: cfg.Population > 0,
		Local:      fl.LocalConfig{Steps: cfg.Steps, BatchSize: cfg.Batch, LR: cfg.LR},
	})
	if err != nil {
		return nil, err
	}
	p := &pool{hub: hub, done: make(chan error, 1)}
	addr := hub.Addr()
	if viaRelay {
		if p.relay, err = newRelay(addr); err != nil {
			hub.Close()
			return nil, err
		}
		addr = p.relay.ln.Addr().String()
	}
	go func() { p.done <- netcoord.RunAgents(netcoord.AgentConfig{Addr: addr, Workers: 1}) }()
	return p, nil
}

func (p *pool) close() {
	p.hub.Close()
	<-p.done
	if p.relay != nil {
		p.relay.close()
	}
}

// wireStages measure the FTNC wire: one training attempt and one
// 8-row prediction frame over loopback.
func wireStages(w *world) ([]Stage, func(), error) {
	cfg := w.cfg
	local := fl.LocalConfig{Steps: cfg.Steps, BatchSize: cfg.Batch, LR: cfg.LR}
	upload := uploadLike(w.unit)
	n := w.ds.Len()
	next := 0
	train := func(p *pool) {
		next = (next + 1) % n
		_, _, err := p.hub.Train(w.unit, fl.TrainSpec{Client: next, Seed: cfg.Seed}, local, upload)
		must(err)
	}

	// Hub up, first agent admitted, model shipped, first attempt answered.
	t0 := time.Now()
	direct, err := newPool(w, false)
	if err != nil {
		return nil, nil, err
	}
	train(direct)
	firstNs := float64(time.Since(t0))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		direct.close()
		return nil, nil, err
	}
	dim := 1
	for _, s := range w.unit.InputShape {
		dim *= s
	}
	classes := make([]int, 8)
	served := make(chan error, 1)
	go func() {
		served <- netcoord.ServeInference(ln, dim, func(rows [][]float64) ([]int, error) { return classes[:len(rows)], nil })
	}()
	client, err := netcoord.DialInference(ln.Addr().String())
	if err != nil {
		ln.Close()
		direct.close()
		return nil, nil, err
	}
	rows := make([][]float64, 8)
	for i := range rows {
		rows[i] = make([]float64, dim)
	}

	var rttNs float64
	networked := b2f(cfg.Networked)
	stages := []Stage{
		{Name: "netcoord.train_rtt_us", Unit: "us", Op: func() { train(direct) },
			Value: func(ns float64) float64 { rttNs = ns; return Us(ns) }},
		{Name: "netcoord.handshake_us", Unit: "us", Measure: func() (float64, error) { return Us(max(firstNs-rttNs, 0)), nil }},
		// What the wire adds to an update: the round trip minus the same
		// training done in-process (fl.train_local_us).
		{Name: "netcoord.wire_us_per_update", Unit: "us", PerUpdate: networked, Measure: func() (float64, error) {
			return Us(max(rttNs-w.trainLocalNs, 0)), nil
		}},
		{Name: "netcoord.wire_b_per_update", Unit: "B", Measure: func() (float64, error) {
			relayed, err := newPool(w, true)
			if err != nil {
				return 0, err
			}
			train(relayed) // ships the model once; not part of an update's traffic
			before := relayed.relay.bytes.Load()
			const updates = 20
			for i := 0; i < updates; i++ {
				train(relayed)
			}
			relayed.close()
			return float64(relayed.relay.bytes.Load()-before) / updates, nil
		}},
		{Name: "netcoord.predict_rtt_us", Unit: "us", Value: Us, PerFrame: 1, Op: func() {
			_, err := client.PredictBatch(rows)
			must(err)
		}},
	}
	return stages, func() {
		client.Close()
		ln.Close()
		<-served
		direct.close()
	}, nil
}
