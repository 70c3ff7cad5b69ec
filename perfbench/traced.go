package main

import (
	"bytes"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/obs"
)

// minProfileSamples is how many labelled CPU-profile samples (10 ms of
// CPU each) the traced run collects before it stops repeating Execute,
// so that a 5% layer share rests on at least 25 samples.
const minProfileSamples = 500

// tracedRun is the outcome of the traced in-process run.
type tracedRun struct {
	runs []*cellRun // the first pass, whose counters and timings are reported
	wall time.Duration
	// allocBytes and gcCPU / busyCPU are the Go runtime's allocation
	// and CPU accounting over the first pass.
	allocBytes     uint64
	gcCPU, busyCPU float64
	shares         map[string]float64
	profSamples    int64
	passes         int
}

// runTraced observes every cell once with a metrics registry armed and
// the CPU profiler on, then repeats the cells, still profiled, until
// the profile holds minProfileSamples samples taken inside Execute or
// the time budget is spent.
func runTraced(cells []cell, budget time.Duration) (*tracedRun, error) {
	t := &tracedRun{}
	var samples []profSample
	deadline := time.Now().Add(budget)
	for {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		var ms0 runtime.MemStats
		first := t.passes == 0
		if first {
			runtime.GC()
			runtime.ReadMemStats(&ms0)
		}
		gc0, cpu0 := cpuSeconds()
		t0 := time.Now()
		runs, err := observeAll(cells)
		wall := time.Since(t0)
		gc1, cpu1 := cpuSeconds()
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if first {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			t.runs, t.wall = runs, wall
			t.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
			t.gcCPU, t.busyCPU = gc1-gc0, cpu1-cpu0
		}
		t.passes++
		s, err := decodeProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		samples = append(samples, s...)
		t.shares, t.profSamples = layerShares(samples, "perfbench", "execute")
		if t.profSamples >= minProfileSamples || time.Now().After(deadline) {
			return t, nil
		}
	}
}

// cpuSeconds reads the Go runtime's estimates of GC CPU time and of the
// CPU time the process kept busy (available minus idle).
func cpuSeconds() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// layerReport collects the per-layer metrics and the names of those that
// do not apply to the workload (reported as 0).
type layerReport struct {
	vals map[string]float64
	na   []string
}

func (r *layerReport) set(name string, v float64) { r.vals[name] = v }

func (r *layerReport) notApplicable(name string) {
	r.vals[name] = 0
	r.na = append(r.na, name)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mergeHist adds s's observations into dst.
func mergeHist(dst *obs.HistSnapshot, s obs.HistSnapshot) {
	if s.Count == 0 {
		return
	}
	if dst.Count == 0 || s.Min < dst.Min {
		dst.Min = s.Min
	}
	dst.Max = max(dst.Max, s.Max)
	dst.Count += s.Count
	dst.Sum += s.Sum
	for len(dst.Buckets) < len(s.Buckets) {
		dst.Buckets = append(dst.Buckets, 0)
	}
	for i, n := range s.Buckets {
		dst.Buckets[i] += n
	}
}

// layerMetrics derives every per-layer metric from the traced run, the
// isolated probes and the untraced command's median wall time.
func layerMetrics(t *tracedRun, l1HitNs, meshNs float64, untracedWall float64) *layerReport {
	r := &layerReport{vals: map[string]float64{}}
	var (
		gen, decode, construct, run, collect, check   time.Duration
		cellSum, cellMax                              time.Duration
		cycleSlots, runShardNs, barrierNs             float64
		ticks, dispatches                             int64
		shards                                        int
		instrs, memOps, accesses, misses              int64
		msgs, flitHops, sroBcasts, memReads, memWrite int64
		tx, txWaste, selfInv                          int64
		selfInvalidates, hasSRO, replay, program      bool
		linkOccPct, calqMax                           float64
		traceBytes, traceOps                          int64
	)
	hists := map[string]*obs.HistSnapshot{}
	hist := func(name string) *obs.HistSnapshot {
		h, ok := hists[name]
		if !ok {
			h = &obs.HistSnapshot{Name: name}
			hists[name] = h
		}
		return h
	}
	for _, c := range t.runs {
		res := c.res
		// MESI shares the L1 statistics type but never self-invalidates.
		selfInvalidates = selfInvalidates || res.Protocol != mesiProto
		construct += c.construct
		run += c.run
		collect += c.collect
		cellSum += c.total
		cellMax = max(cellMax, c.total)
		if c.replay {
			replay = true
			decode += c.gen
			traceBytes += c.traceBytes
			traceOps += c.traceOps
		} else {
			program = true
			gen += c.gen
			check += c.check
		}
		k := c.shards
		shards = max(shards, k)
		cycleSlots += float64(c.cycles) * float64(k)
		runShardNs += float64(c.run.Nanoseconds()) * float64(k)
		instrs += res.Instructions
		memOps += res.Loads + res.Stores + res.RMWs
		accesses += res.L1.Accesses()
		misses += res.L1.Misses()
		msgs += res.Msgs
		flitHops += res.FlitHops
		sroBcasts += res.SROInvBcasts
		memReads += c.memReads
		memWrite += c.memWrites
		for _, v := range c.counters {
			switch {
			case strings.HasSuffix(v.Name, ".tx_news"):
				tx += v.Value
			case strings.HasSuffix(v.Name, ".tx_retries"), strings.HasSuffix(v.Name, ".tx_waits"):
				txWaste += v.Value
			case strings.HasSuffix(v.Name, ".selfinv_lines"):
				selfInv += v.Value
			case strings.HasSuffix(v.Name, ".sro_inv_bcasts"):
				hasSRO = true
			}
		}
		for _, g := range c.gauges {
			switch {
			case strings.HasSuffix(g.Name, ".barrier_wait_ns"):
				barrierNs += float64(g.Value)
			case g.Name == "mesh.link_occ_flit_cycles.max_link":
				linkOccPct = max(linkOccPct, 100*ratio(float64(g.Value), float64(c.cycles)))
			case g.Name == "mesh.calqueue_depth_max":
				calqMax = max(calqMax, float64(g.Value))
			}
		}
		for _, h := range c.hists {
			name := h.Name
			if i := strings.Index(name, ".stall."); i >= 0 {
				name = name[i+1:] // per-core series merge by reason
			}
			mergeHist(hist(name), h)
		}
	}
	ns := float64(run.Nanoseconds())
	d := hist("engine.dispatch_ticks")
	ticks, dispatches = d.Sum, d.Count

	if program {
		r.set("workloads.gen_s", gen.Seconds())
		r.set("system.check_s", check.Seconds())
	} else {
		r.notApplicable("workloads.gen_s")
		r.notApplicable("system.check_s")
	}
	r.set("system.build_s", construct.Seconds())
	r.set("system.collect_s", collect.Seconds())
	if len(t.runs) > 1 {
		r.set("harness.cell_s_sum", cellSum.Seconds())
		r.set("harness.cell_s_max", cellMax.Seconds())
	} else {
		r.notApplicable("harness.cell_s_sum")
		r.notApplicable("harness.cell_s_max")
	}

	r.set("sim.run_s", run.Seconds())
	r.set("sim.ticks", float64(ticks))
	r.set("sim.ns_per_tick", ratio(ns, float64(ticks)))
	r.set("sim.ticks_per_dispatch", ratio(float64(ticks), float64(dispatches)))
	r.set("sim.idle_skip_pct", 100*(1-ratio(float64(dispatches), cycleSlots)))
	if shards > 1 {
		r.set("sim.barrier_wait_pct", 100*ratio(barrierNs, runShardNs))
	} else {
		r.notApplicable("sim.barrier_wait_pct")
	}
	r.set("sim.shards", float64(shards))

	r.set("cpu.instructions", float64(instrs))
	r.set("cpu.mem_ops", float64(memOps))
	r.set("cpu.ns_per_mem_op", ratio(ns, float64(memOps)))
	for _, reason := range []string{"miss_outstanding", "port_busy", "wb_full", "fence_drain", "batch_interior"} {
		name := "cpu.stall." + reason + "_cyc"
		if reason == "batch_interior" && !program {
			r.notApplicable(name) // trace replay cores do not batch
			continue
		}
		r.set(name, float64(hist("stall."+reason).Sum))
	}

	r.set("l1.accesses", float64(accesses))
	r.set("l1.hit_pct", 100*(1-ratio(float64(misses), float64(accesses))))
	if selfInvalidates {
		r.set("l1.selfinv_lines", float64(selfInv))
	} else {
		r.notApplicable("l1.selfinv_lines")
	}
	r.set("l1.read_miss_cyc", hist("l1.read_miss_latency").Mean())
	r.set("l1.write_miss_cyc", hist("l1.write_miss_latency").Mean())
	r.set("l1.hit_ns", l1HitNs)

	txLat := hist("coherence.tx_latency")
	r.set("l2.tx", float64(tx))
	r.set("l2.tx_retry_pct", 100*ratio(float64(txWaste), float64(tx)))
	r.set("l2.tx_cyc_mean", txLat.Mean())
	// A p99 needs ten observations beyond it (stats.go).
	if txLat.Count >= 1000 {
		r.set("l2.tx_cyc_p99", float64(txLat.Quantile(0.99)))
	} else {
		r.notApplicable("l2.tx_cyc_p99")
	}
	if hasSRO {
		r.set("l2.sro_inv_bcasts", float64(sroBcasts))
	} else {
		r.notApplicable("l2.sro_inv_bcasts")
	}

	r.set("mesh.msgs", float64(msgs))
	r.set("mesh.flit_hops", float64(flitHops))
	r.set("mesh.ns_per_msg", ratio(ns, float64(msgs)))
	r.set("mesh.link_occ_max", linkOccPct)
	r.set("mesh.calqueue_depth_max", calqMax)
	r.set("mesh.deliver_ns", meshNs)

	r.set("memsys.mem_reads", float64(memReads))
	r.set("memsys.mem_writes", float64(memWrite))

	if replay {
		r.set("trace.decode_s", decode.Seconds())
		r.set("trace.bytes_per_op", ratio(float64(traceBytes), float64(traceOps)))
		r.set("trace.replay_ns_per_op", ratio(ns, float64(traceOps)))
	} else {
		r.notApplicable("trace.decode_s")
		r.notApplicable("trace.bytes_per_op")
		r.notApplicable("trace.replay_ns_per_op")
	}

	r.set("go.alloc_mb", float64(t.allocBytes)/(1<<20))
	r.set("go.gc_cpu_pct", 100*ratio(t.gcCPU, t.busyCPU))
	for _, l := range profLayers {
		r.set("prof."+l+"_pct", t.shares[l])
	}
	r.set("trace_overhead_pct", 100*ratio(t.wall.Seconds()-untracedWall, untracedWall))
	return r
}
