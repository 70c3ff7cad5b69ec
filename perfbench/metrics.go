package main

import "fmt"

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same metrics (TestBenchmarkJSONMatches).
type metricDef struct{ name, unit string }

// endToEndMetrics are reported with --trace 0.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"sim_cycles", "cycles"},
	{"passed_pct", "%"},
}

// layerMetricDefs are reported with --trace 1, grouped by layer.
var layerMetricDefs = []metricDef{
	{"workloads.gen_s", "s"},
	{"system.build_s", "s"},
	{"system.collect_s", "s"},
	{"system.check_s", "s"},
	{"harness.cell_s_sum", "s"},
	{"harness.cell_s_max", "s"},
	{"sim.run_s", "s"},
	{"sim.ticks", "count"},
	{"sim.ns_per_tick", "ns"},
	{"sim.ticks_per_dispatch", "count"},
	{"sim.idle_skip_pct", "%"},
	{"sim.barrier_wait_pct", "%"},
	{"sim.shards", "count"},
	{"cpu.instructions", "count"},
	{"cpu.mem_ops", "count"},
	{"cpu.ns_per_mem_op", "ns"},
	{"cpu.stall.miss_outstanding_cyc", "cycles"},
	{"cpu.stall.port_busy_cyc", "cycles"},
	{"cpu.stall.wb_full_cyc", "cycles"},
	{"cpu.stall.fence_drain_cyc", "cycles"},
	{"cpu.stall.batch_interior_cyc", "cycles"},
	{"l1.accesses", "count"},
	{"l1.hit_pct", "%"},
	{"l1.selfinv_lines", "count"},
	{"l1.read_miss_cyc", "cycles"},
	{"l1.write_miss_cyc", "cycles"},
	{"l1.hit_ns", "ns"},
	{"l2.tx", "count"},
	{"l2.tx_retry_pct", "%"},
	{"l2.tx_cyc_mean", "cycles"},
	{"l2.tx_cyc_p99", "cycles"},
	{"l2.sro_inv_bcasts", "count"},
	{"mesh.msgs", "count"},
	{"mesh.flit_hops", "count"},
	{"mesh.ns_per_msg", "ns"},
	{"mesh.link_occ_max", "%"},
	{"mesh.calqueue_depth_max", "count"},
	{"mesh.deliver_ns", "ns"},
	{"memsys.mem_reads", "count"},
	{"memsys.mem_writes", "count"},
	{"trace.decode_s", "s"},
	{"trace.bytes_per_op", "bytes"},
	{"trace.replay_ns_per_op", "ns"},
	{"go.alloc_mb", "MiB"},
	{"go.gc_cpu_pct", "%"},
	{"prof.sim_pct", "%"},
	{"prof.cpu_pct", "%"},
	{"prof.tsocc_pct", "%"},
	{"prof.mesi_pct", "%"},
	{"prof.coherence_pct", "%"},
	{"prof.memsys_pct", "%"},
	{"prof.mesh_pct", "%"},
	{"prof.trace_pct", "%"},
	{"prof.system_pct", "%"},
	{"prof.runtime_pct", "%"},
	{"prof.other_pct", "%"},
	{"trace_overhead_pct", "%"},
}

// report turns measured values into the result's metrics map, demanding
// a value for every definition and no other.
func report(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, %d are defined", len(vals), len(defs))
	}
	return out, nil
}
