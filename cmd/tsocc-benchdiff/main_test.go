package main

import (
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

// oldRecord is a pre-observability snapshot record: the obs series
// (tx_latency_mean_cycles, l1_miss_latency_mean_cycles,
// stall_cycles_total) are absent and decode to zero.
func oldRecord() benchfmt.Record {
	return benchfmt.Record{
		Benchmark:      "canneal",
		Protocol:       "TSO-CC-4-12-3",
		Cores:          8,
		HostNsPerCycle: 100,
		Speedup:        2.0,
	}
}

func newRecord() benchfmt.Record {
	r := oldRecord()
	r.HostNsPerCycle = 90
	r.TxLatencyMean = 42.5
	r.L1MissLatencyMean = 130.25
	r.StallCycles = 9001
	return r
}

// TestDiffOldVsNewSnapshot diffs a pre-obs snapshot against one
// carrying the new series: the diff must not report a regression from
// zero, just the new values.
func TestDiffOldVsNewSnapshot(t *testing.T) {
	prev := &benchfmt.Snapshot{Results: []benchfmt.Record{oldRecord()}}
	cur := &benchfmt.Snapshot{Results: []benchfmt.Record{newRecord()}}
	var b strings.Builder
	renderDiff(&b, prev, cur)
	out := b.String()
	if !strings.Contains(out, "canneal/TSO-CC-4-12-3") {
		t.Fatalf("diff lost the record:\n%s", out)
	}
	if !strings.Contains(out, "-> 42.50") {
		t.Errorf("obs series with absent old side should render '-> new', got:\n%s", out)
	}
	if strings.Contains(out, "0.0 -> 42.5") {
		t.Errorf("obs series must not diff against a pre-obs zero:\n%s", out)
	}
}

// TestDiffBothOldSnapshots diffs two pre-obs snapshots: obs columns
// render "-" rather than zero deltas.
func TestDiffBothOldSnapshots(t *testing.T) {
	prev := &benchfmt.Snapshot{Results: []benchfmt.Record{oldRecord()}}
	cur := &benchfmt.Snapshot{Results: []benchfmt.Record{oldRecord()}}
	var b strings.Builder
	renderDiff(&b, prev, cur)
	line := ""
	for _, l := range strings.Split(b.String(), "\n") {
		if strings.Contains(l, "canneal") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("record line missing:\n%s", b.String())
	}
	if !strings.Contains(line, " - ") && !strings.HasSuffix(strings.TrimRight(line, " "), "-") {
		t.Errorf("obs columns for two pre-obs snapshots should render '-': %q", line)
	}
}

// TestGateIgnoresObsSeries ensures the regression gate still passes on
// a snapshot with no obs series (they are informational, not gated).
func TestGateIgnoresObsSeries(t *testing.T) {
	cur := &benchfmt.Snapshot{Results: []benchfmt.Record{oldRecord()}}
	var out, errs strings.Builder
	if !runGate(&out, &errs, cur, "x.json") {
		t.Fatalf("gate failed on a healthy pre-obs snapshot: %s", errs.String())
	}
}

func scalingPoint(cores int, speedup float64) benchfmt.ScalingPoint {
	return benchfmt.ScalingPoint{
		Benchmark:      "canneal",
		Protocol:       "TSO-CC-4-12-3",
		Cores:          cores,
		SimCycles:      100000,
		WallNsPerCycle: 1000 * speedup,
		WallNsEvent:    1000,
		Speedup:        speedup,
	}
}

// TestGateScalingParity: a scaling point at >= 64 cores where the event
// engine loses to the per-cycle ticker fails the gate; small-machine
// points are informational only.
func TestGateScalingParity(t *testing.T) {
	cur := &benchfmt.Snapshot{
		Results: []benchfmt.Record{oldRecord()},
		Scaling: []benchfmt.ScalingPoint{scalingPoint(8, 0.5), scalingPoint(64, 1.3)},
	}
	var out, errs strings.Builder
	if !runGate(&out, &errs, cur, "x.json") {
		t.Fatalf("gate failed on a healthy scaling curve: %s", errs.String())
	}
	if !strings.Contains(out.String(), "scaling points at >= 64 cores") {
		t.Errorf("gate did not report the scaling parity check:\n%s", out.String())
	}

	cur.Scaling = append(cur.Scaling, scalingPoint(128, 0.9))
	out.Reset()
	errs.Reset()
	if runGate(&out, &errs, cur, "x.json") {
		t.Fatal("gate passed a 128-core point with event engine slower than per-cycle")
	}
	if !strings.Contains(errs.String(), "scaling canneal/TSO-CC-4-12-3@128") {
		t.Errorf("gate failure did not name the offending scaling point:\n%s", errs.String())
	}
}

// TestDiffRendersScalingCurve: the scaling series renders against an
// old snapshot that predates it (points marked new) and against one
// that carries it (deltas).
func TestDiffRendersScalingCurve(t *testing.T) {
	prev := &benchfmt.Snapshot{Results: []benchfmt.Record{oldRecord()}}
	cur := &benchfmt.Snapshot{
		Results: []benchfmt.Record{newRecord()},
		Scaling: []benchfmt.ScalingPoint{scalingPoint(64, 1.5)},
	}
	var b strings.Builder
	renderDiff(&b, prev, cur)
	if !strings.Contains(b.String(), "canneal/TSO-CC-4-12-3@64") {
		t.Fatalf("scaling point missing from diff:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "(new)") {
		t.Errorf("scaling point against a pre-scaling snapshot should render (new):\n%s", b.String())
	}

	prev.Scaling = []benchfmt.ScalingPoint{scalingPoint(64, 1.2)}
	b.Reset()
	renderDiff(&b, prev, cur)
	if !strings.Contains(b.String(), "1200.0 -> 1500.0") {
		t.Errorf("scaling deltas not rendered:\n%s", b.String())
	}
}

// twoCPURecord is an 8-core record from a 2-CPU host where the sharded
// engine ran at 0.19x serial, with the given default shard count.
func twoCPURecord(defaultShards int) benchfmt.Record {
	r := newRecord()
	r.Shards = 2
	r.GOMAXPROCS = 2
	r.WallNsParallel = 100 / 0.19
	r.ParallelSpeedup = 0.19
	r.DefaultShards = defaultShards
	return r
}

// TestGateShardedDefaultSlowerThanSerial: a default that resolves to the
// sharded engine must not be slower than serial on the host that
// measured it.
func TestGateShardedDefaultSlowerThanSerial(t *testing.T) {
	cur := &benchfmt.Snapshot{Results: []benchfmt.Record{twoCPURecord(2)}}
	var out, errs strings.Builder
	if runGate(&out, &errs, cur, "x.json") {
		t.Fatal("gate passed a sharded default at 0.19x serial on 2 CPUs")
	}
	if !strings.Contains(errs.String(), "default engine is sharded") {
		t.Errorf("gate failure did not name the sharded default:\n%s", errs.String())
	}
}

// TestGateSerialDefaultPasses: the same slow sharded leg is only data
// when the default is serial.
func TestGateSerialDefaultPasses(t *testing.T) {
	cur := &benchfmt.Snapshot{Results: []benchfmt.Record{twoCPURecord(1)}}
	var out, errs strings.Builder
	if !runGate(&out, &errs, cur, "x.json") {
		t.Fatalf("gate failed a serial default: %s", errs.String())
	}
}
