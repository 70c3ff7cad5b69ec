package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Workload sizes. Each is set so that one command takes long enough to
// time against process start-up, and short enough that a run of
// run_seconds repeats it several times (README.md, "Workloads").
const (
	gridCores    = 8
	gridScale    = 1 // the paper's grid as users run it
	cannealCores = 64
	cannealScale = 8
	replayCores  = 32
	replayScale  = 64
	tsoccProto   = "TSO-CC-4-12-3"
	mesiProto    = "MESI"
)

// workload is one thing a user runs and waits for.
type workload struct {
	name string
	// prepare does the benchmark's own per-seed set-up before anything is
	// timed (replay-mesi records its trace here) and returns the
	// user-facing command and the simulations it runs.
	prepare func(e *env) (argv []string, cells []cell, err error)
	// cycles checks one command's output and returns the simulated
	// cycles of each cell it ran. tsocc-sim must print its
	// functional-check line and tsocc-bench its grid-complete line; a
	// replay has no functional check, so its retired memory operations
	// must match the trace's instead.
	cycles func(out cmdRun, cells []cell) (map[string]int64, error)
}

var workloadList = []workload{
	{
		name: "grid8",
		prepare: func(e *env) ([]string, []cell, error) {
			argv := []string{e.bin("tsocc-bench"), "-cores", strconv.Itoa(gridCores),
				"-scale", strconv.Itoa(gridScale), "-seed", e.seedStr()}
			cfg := config.Scaled(gridCores)
			cfg.BatchedCore = true
			cfg.Shards = cliShards()
			var cells []cell
			for _, name := range workloads.Names() {
				entry := workloads.ByName(name)
				for _, p := range harness.Protocols() {
					cells = append(cells, cell{key: name + "/" + p.Name(), cfg: cfg, proto: p,
						entry: entry, params: workloads.Params{Threads: gridCores, Scale: gridScale, Seed: e.seed}})
				}
			}
			return argv, cells, nil
		},
		cycles: func(out cmdRun, _ []cell) (map[string]int64, error) {
			return gridCycles(out.Stderr)
		},
	},
	{
		name:    "canneal64",
		prepare: simPrepare("canneal", cannealCores, cannealScale),
		cycles:  simCyclesOf,
	},
	{
		name: "replay-mesi",
		prepare: func(e *env) ([]string, []cell, error) {
			path := filepath.Join(e.work, "ssca2.trc")
			rec := e.runCommand([]string{e.bin("tsocc-trace"), "record", "-bench", "ssca2",
				"-proto", tsoccProto, "-cores", strconv.Itoa(replayCores),
				"-scale", strconv.Itoa(replayScale), "-seed", e.seedStr(), "-o", path})
			if rec.Err != nil {
				return nil, nil, fmt.Errorf("record trace: %w", rec.Err)
			}
			if _, _, err := simCycles(rec.Stdout, false); err != nil {
				return nil, nil, fmt.Errorf("record trace: %w", err)
			}
			tr, err := trace.ReadFile(path)
			if err != nil {
				return nil, nil, fmt.Errorf("record trace: %w", err)
			}
			p, err := coherence.ProtocolByName(mesiProto)
			if err != nil {
				return nil, nil, err
			}
			argv := []string{e.bin("tsocc-trace"), "replay", "-i", path, "-proto", mesiProto}
			return argv, []cell{{key: "ssca2/" + mesiProto, proto: p, tracePath: path, memOps: traceMemOps(tr)}}, nil
		},
		cycles: func(out cmdRun, cells []cell) (map[string]int64, error) {
			cyc, rows, err := simCycles(out.Stdout, false)
			if err != nil {
				return nil, err
			}
			if got, want := rows["loads"]+rows["stores"]+rows["rmws"], cells[0].memOps; got != want {
				return nil, fmt.Errorf("replay retired %d memory ops, trace holds %d", got, want)
			}
			return map[string]int64{cells[0].key: cyc}, nil
		},
	},
}

// simPrepare builds the tsocc-sim workloads: one benchmark on the
// command's default protocol.
func simPrepare(bench string, cores, scale int) func(e *env) ([]string, []cell, error) {
	return func(e *env) ([]string, []cell, error) {
		argv := []string{e.bin("tsocc-sim"), "-bench", bench, "-cores", strconv.Itoa(cores),
			"-scale", strconv.Itoa(scale), "-seed", e.seedStr()}
		p, err := coherence.ProtocolByName(tsoccProto)
		if err != nil {
			return nil, nil, err
		}
		cfg := config.Scaled(cores)
		cfg.Shards = cliShards()
		c := cell{key: bench + "/" + p.Name(), cfg: cfg, proto: p, entry: workloads.ByName(bench),
			params: workloads.Params{Threads: cores, Scale: scale, Seed: e.seed}}
		return argv, []cell{c}, nil
	}
}

func simCyclesOf(out cmdRun, cells []cell) (map[string]int64, error) {
	cyc, _, err := simCycles(out.Stdout, true)
	if err != nil {
		return nil, err
	}
	return map[string]int64{cells[0].key: cyc}, nil
}

// cliShards is the shard count the CLIs' default "-shards 0" resolves
// to before the machine clamps it (cmd/tsocc-sim and cmd/tsocc-bench:
// GOMAXPROCS). The in-process runs pass the same value so they build the
// machine the command builds; Machine.Shards reports the result.
func cliShards() int { return runtime.GOMAXPROCS(0) }

// traceMemOps counts a trace's memory operations, the loads, stores and RMWs
// a replay must retire.
func traceMemOps(tr *trace.Trace) int64 {
	var n int64
	for _, s := range tr.Streams {
		for _, op := range s.Ops {
			if op.Kind.HasAddr() {
				n++
			}
		}
	}
	return n
}

func workloadByName(name string) *workload {
	for i := range workloadList {
		if workloadList[i].name == name {
			return &workloadList[i]
		}
	}
	return nil
}
