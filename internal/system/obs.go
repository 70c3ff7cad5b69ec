package system

import (
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// installObs wires the observability layer (cfg.Obs) into every built
// component. It runs after registration (engine timeline/label hooks
// enumerate registered tickers) and before Run. Everything installed
// here is strictly read-only with respect to simulated state: sinks
// observe cycle counts and event edges the simulation produces anyway,
// so an observed run's Result is bit-identical to an unobserved one
// (the TestObsOnOffBitIdentical gate).
func (m *Machine) installObs() {
	o := m.Cfg.Obs
	if o == nil || !o.Enabled() {
		return
	}
	reg, tl := o.Metrics, o.Timeline

	// Engine: wake-set occupancy, tick spans, epoch/barrier spans,
	// pprof labels. Each shard engine gets its own histogram instance
	// (single-goroutine ownership); same-named series merge at dump.
	if m.SE != nil {
		if reg != nil {
			m.SE.EnableBarrierClock()
			for s := 0; s < m.SE.Shards(); s++ {
				s := s
				m.SE.Shard(s).SetDispatchHist(reg.NewHist("engine.dispatch_ticks"))
				reg.Gauge("engine.shard"+strconv.Itoa(s)+".barrier_wait_ns",
					func() int64 { return m.SE.BarrierWaitNs(s) })
			}
		}
		if tl != nil {
			m.SE.SetTimeline(tl)
		}
		if o.ProfileLabels {
			m.SE.EnableProfileLabels()
		}
	} else {
		if reg != nil {
			m.Engine.SetDispatchHist(reg.NewHist("engine.dispatch_ticks"))
		}
		if tl != nil {
			tl.ProcessName(0, "components")
			m.Engine.SetTimeline(tl, 0, nil)
		}
		if o.ProfileLabels {
			m.Engine.EnableProfileLabels("0")
		}
	}

	// Mesh: traffic counters, link occupancy and calendar-queue depth
	// gauges, send→deliver flow arrows, fault-delay instants.
	if reg != nil {
		m.Net.InstallMetrics(reg)
		reg.RegisterCounter(m.Mem.Counters()...)
	}
	if tl != nil {
		m.Net.SetTimeline(tl)
	}

	// L1s: hit/miss/self-invalidation counters (the per-miss latency
	// histograms arrive through the controllers' hooks; see attachHooks).
	if reg != nil {
		for i, l1 := range m.L1s {
			s := l1.L1Stats()
			s.SetNames(fmt.Sprintf("l1.%d", i))
			reg.RegisterCounter(s.Counters()...)
		}
	}

	// Directory tiles: TxTable lifecycle counters, birth-to-death
	// transaction latency, and per-transaction async timeline spans
	// named in protocol terms (mem-fetch, await-ack, sro-inv, ...).
	if tl != nil {
		tl.ProcessName(obs.PidTx, "directory tx")
	}
	for tile, l2 := range m.L2s {
		txs := l2.Txs()
		var lat func(sim.Cycle)
		if reg != nil {
			reg.RegisterCounter(txs.Counters()...)
			reg.RegisterCounter(l2.Counters()...)
			h := reg.NewHist("coherence.tx_latency")
			lat = func(cycles sim.Cycle) { h.Observe(int64(cycles)) }
		}
		var span func(bool, sim.Cycle, uint64, int)
		if tl != nil {
			tile := tile
			tl.ThreadName(obs.PidTx, tile, "tile "+strconv.Itoa(tile))
			cat := "tx.t" + strconv.Itoa(tile)
			span = func(begin bool, now sim.Cycle, addr uint64, kind int) {
				if begin {
					tl.AsyncBegin(cat, addr, obs.PidTx, tile, txs.KindName(kind), int64(now))
				} else {
					tl.AsyncEnd(cat, addr, obs.PidTx, tile, txs.KindName(kind), int64(now))
				}
			}
		}
		txs.SetObsSinks(lat, span)
	}

	// Frontends: retirement counters and stall-attribution histograms
	// (why each stalled cycle happened, bucketed by duration).
	if reg != nil {
		for i, f := range m.Fronts {
			prefix := "core" + strconv.Itoa(m.frontCore[i])
			if _, replay := f.(*trace.ReplayCore); replay {
				prefix = "replay" + strconv.Itoa(m.frontCore[i])
			}
			reg.RegisterCounter(f.Counters()...)
			f.SetStalls(reg.NewCoreStalls(prefix))
		}
	}
}
