package main

import (
	"fmt"
	"time"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/mesh"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/system"
)

// The probes time one layer operation in isolation, the way the repo's
// BenchmarkL1HitPath and BenchmarkMeshDelivery do: batches of the
// operation are timed and the median batch gives ns per operation.

const (
	probeBatches = 31
	probeOps     = 20000
)

// l1HitNs times CorePort.Load hits on a warmed line of proto's L1.
func l1HitNs(proto system.Protocol) (float64, error) {
	cfg := config.Scaled(1)
	cfg.Shards = 1
	warm := program.NewBuilder("warm")
	warm.Li(1, 0x1000)
	warm.Ld(2, 1, 0)
	warm.Halt()
	w := &program.Workload{Name: "warm", Programs: []*program.Program{warm.MustBuild()}}
	m, err := system.NewMachine(cfg, proto, w)
	if err != nil {
		return 0, err
	}
	if _, err := m.Engine.Run(); err != nil {
		return 0, err
	}
	port, l1 := m.CorePort(0), m.L1s[0]
	now := m.Engine.Now() + 1
	var sink uint64
	cb := func(val uint64) { sink = val }
	perOp := make([]float64, probeBatches)
	for b := range perOp {
		t0 := time.Now()
		for i := 0; i < probeOps; i++ {
			if !port.Load(now, 0x1000, cb) {
				return 0, fmt.Errorf("l1 probe: %s refused a hit load", proto.Name())
			}
			now += cfg.L1HitLat
			l1.Tick(now)
			now++
		}
		perOp[b] = float64(time.Since(t0).Nanoseconds()) / probeOps
	}
	_ = sink
	return median(perOp), nil
}

// poolSink is a mesh endpoint that returns every delivered message to
// the network's pool.
type poolSink struct{ net *mesh.Network }

func (s poolSink) Deliver(_ sim.Cycle, m *coherence.Msg) { s.net.Pool.Put(m) }

// meshDeliverNs times one pooled data message's Send plus the Ticks
// that deliver it, on a mesh of the given router count.
func meshDeliverNs(routers int) float64 {
	net := mesh.New(mesh.Config{Routers: routers})
	for i := 0; i < routers; i++ {
		net.Attach(coherence.NodeID(i), i, poolSink{net})
	}
	payload := make([]byte, coherence.BlockSize)
	now := sim.Cycle(0)
	perOp := make([]float64, probeBatches)
	n := 0
	for b := range perOp {
		t0 := time.Now()
		for i := 0; i < probeOps; i++ {
			m := net.Pool.Get()
			m.Type = coherence.MsgDataS
			m.Src = coherence.NodeID(n % routers)
			m.Dst = coherence.NodeID((n*7 + 3) % routers)
			if m.Src == m.Dst {
				m.Dst = coherence.NodeID((int(m.Dst) + 1) % routers)
			}
			m.SetData(payload)
			net.Send(now, m)
			for net.Pending() > 0 {
				now++
				net.Tick(now)
			}
			n++
		}
		perOp[b] = float64(time.Since(t0).Nanoseconds()) / probeOps
	}
	return median(perOp)
}
