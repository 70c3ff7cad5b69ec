package main

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/workloads"
)

// A small grid observed in-process on two workers yields deterministic
// cycles and a value for every per-layer metric.
func TestObserveAllSmallGrid(t *testing.T) {
	cfg := config.Scaled(4)
	cfg.Shards = 2
	var cells []cell
	for _, bench := range []string{"canneal", "fluidanimate"} {
		for _, name := range []string{tsoccProto, mesiProto} {
			p, err := coherence.ProtocolByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cell{key: bench + "/" + name, cfg: cfg, proto: p,
				entry: workloads.ByName(bench), params: workloads.Params{Threads: 4, Scale: 1, Seed: 7}})
		}
	}
	first, err := observeAll(cells)
	if err != nil {
		t.Fatal(err)
	}
	second, err := observeAll(cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCycles("the first pass", cellCycles(first), cellCycles(second)); err != nil {
		t.Fatal(err)
	}
	for _, r := range first {
		if r.cycles <= 0 || r.shards != 2 {
			t.Errorf("%s: %d cycles on %d shards", r.key, r.cycles, r.shards)
		}
	}

	rep := layerMetrics(&tracedRun{runs: first, shares: map[string]float64{}}, 1, 1, 1)
	if _, err := report(layerMetricDefs, rep.vals); err != nil {
		t.Fatal(err)
	}
	na := map[string]bool{}
	for _, n := range rep.na {
		na[n] = true
	}
	for _, want := range []string{"trace.decode_s", "trace.bytes_per_op", "trace.replay_ns_per_op"} {
		if !na[want] {
			t.Errorf("%s applies to a grid without replays", want)
		}
	}
	for _, name := range []string{"harness.cell_s_sum", "sim.barrier_wait_pct", "l1.selfinv_lines", "l2.sro_inv_bcasts"} {
		if na[name] {
			t.Errorf("%s reported as not applicable", name)
		}
	}
	if rep.vals["sim.ticks"] <= 0 || rep.vals["l2.tx"] <= 0 || rep.vals["mesh.msgs"] <= 0 {
		t.Errorf("empty counters: %v", rep.vals)
	}
}
