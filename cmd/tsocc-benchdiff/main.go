// Command tsocc-benchdiff compares simulator-throughput snapshots
// (the BENCH_*.json files written by `tsocc-bench -perf` / `make
// bench-json`) and gates engine-performance regressions.
//
// Usage:
//
//	tsocc-benchdiff old.json new.json   # per-workload deltas
//	tsocc-benchdiff -gate new.json      # regression gate only
//	tsocc-benchdiff -gate old.json new.json
//
// The gate fails (exit 1) if any benchmark in the newest snapshot has
// event_vs_percycle_speedup < 1.0 — the event engine must never be
// slower than the per-cycle conformance ticker on any measured
// workload — or if the snapshot contains no measurements at all (a
// vacuously green gate is a disarmed gate). The same parity bound
// applies to every scaling-curve point at >= 64 cores: scale is where
// the wake-set engine pays for itself, so losing to the per-cycle
// ticker on a large machine is a regression even if the 32-core
// records stay green. Records whose parallel leg
// ran at >= 4 shards with GOMAXPROCS >= 4 must additionally show
// parallel_vs_serial_speedup >= 1.0: with enough CPUs behind it the
// sharded engine must never lose to the single-threaded one. Records
// timed without the CPUs to back the shards (gomaxprocs < 4) carry the
// numbers but are exempt — a 1-CPU runner interleaving 4 shards proves
// nothing about the parallel engine. Separately, the default engine
// must be the faster one: a record whose default_shards is >= 2 (the
// CLIs' -shards setting builds the sharded engine) and was timed at
// GOMAXPROCS >= 2 fails unless parallel_vs_serial_speedup >= 1.0.
// Speedups are within-host ratios, so the gate is meaningful on any
// machine; absolute ns/cycle deltas are only comparable when the
// recorded host metadata matches.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchfmt"
)

func main() {
	gate := flag.Bool("gate", false, "fail (exit 1) if any benchmark's event_vs_percycle_speedup < 1.0")
	flag.Parse()

	var oldPath, newPath string
	switch flag.NArg() {
	case 1:
		newPath = flag.Arg(0)
	case 2:
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	default:
		fmt.Fprintln(os.Stderr, "usage: tsocc-benchdiff [-gate] [old.json] new.json")
		os.Exit(2)
	}

	cur, err := benchfmt.Load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if oldPath != "" {
		prev, err := benchfmt.Load(oldPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		renderDiff(os.Stdout, prev, cur)
	}

	if *gate {
		if !runGate(os.Stdout, os.Stderr, cur, newPath) {
			os.Exit(1)
		}
	}
}

// renderDiff writes the per-record comparison table. A zero value on
// the old side of a series means the snapshot predates that field
// (schema growth: parallel legs arrived in PR 7, obs series in PR 9),
// so those cells render "-> new" or "-" instead of a delta against
// zero — old snapshots stay diffable forever.
func renderDiff(w io.Writer, prev, cur *benchfmt.Snapshot) {
	if prev.Host != cur.Host && prev.Host != (benchfmt.Host{}) {
		fmt.Fprintf(w, "note: snapshots from different hosts (%s %s/%s %d cpu vs %s %s/%s %d cpu); "+
			"only speedup ratios are comparable\n\n",
			prev.Host.GoVersion, prev.Host.GOOS, prev.Host.GOARCH, prev.Host.NumCPU,
			cur.Host.GoVersion, cur.Host.GOOS, cur.Host.GOARCH, cur.Host.NumCPU)
	}
	byKey := map[string]benchfmt.Record{}
	for _, r := range prev.Results {
		byKey[r.Key()] = r
	}
	fmt.Fprintf(w, "%-28s %26s %22s %20s %24s %22s\n", "benchmark/protocol",
		"host_ns/cycle", "event/percycle", "trace B/op", "tx_lat cyc", "stall cyc")
	for _, r := range cur.Results {
		o, ok := byKey[r.Key()]
		if !ok {
			fmt.Fprintf(w, "%-28s %26s %22s %20s %24s %22s  (new)\n", r.Key(),
				fmt.Sprintf("%.1f", r.HostNsPerCycle),
				fmt.Sprintf("%.2f", r.Speedup),
				fmt.Sprintf("%.2f", r.TraceBytesPerOp),
				fmt.Sprintf("%.1f", r.TxLatencyMean),
				fmt.Sprintf("%d", r.StallCycles))
			continue
		}
		fmt.Fprintf(w, "%-28s %26s %22s %20s %24s %22s\n", r.Key(),
			deltaStr(o.HostNsPerCycle, r.HostNsPerCycle),
			deltaStr(o.Speedup, r.Speedup),
			deltaStr(o.TraceBytesPerOp, r.TraceBytesPerOp),
			obsDeltaStr(o.TxLatencyMean, r.TxLatencyMean),
			obsDeltaStr(float64(o.StallCycles), float64(r.StallCycles)))
	}
	if len(cur.Scaling) > 0 {
		renderScaling(w, prev, cur)
	}
}

// renderScaling writes the scaling-curve comparison: host-ns per
// simulated cycle against core count, per engine. Points are keyed by
// benchmark/protocol@cores; an old snapshot without the series (or
// without a given point) renders the new numbers alone.
func renderScaling(w io.Writer, prev, cur *benchfmt.Snapshot) {
	key := func(p benchfmt.ScalingPoint) string {
		return fmt.Sprintf("%s/%s@%d", p.Benchmark, p.Protocol, p.Cores)
	}
	byKey := map[string]benchfmt.ScalingPoint{}
	for _, p := range prev.Scaling {
		byKey[key(p)] = p
	}
	fmt.Fprintf(w, "\nscaling curve (host ns / sim cycle)\n")
	fmt.Fprintf(w, "%-34s %26s %26s %22s\n", "benchmark/protocol@cores",
		"percycle", "event", "sharded")
	for _, p := range cur.Scaling {
		o, ok := byKey[key(p)]
		if !ok {
			fmt.Fprintf(w, "%-34s %26s %26s %22s  (new)\n", key(p),
				fmt.Sprintf("%.1f", p.WallNsPerCycle),
				fmt.Sprintf("%.1f", p.WallNsEvent),
				shardedStr(p))
			continue
		}
		fmt.Fprintf(w, "%-34s %26s %26s %22s\n", key(p),
			deltaStr(o.WallNsPerCycle, p.WallNsPerCycle),
			deltaStr(o.WallNsEvent, p.WallNsEvent),
			obsDeltaStr(o.WallNsParallel, p.WallNsParallel))
	}
}

// shardedStr renders a new point's sharded column ("-" when the leg
// did not run).
func shardedStr(p benchfmt.ScalingPoint) string {
	if p.WallNsParallel == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f (x%d)", p.WallNsParallel, p.Shards)
}

// runGate applies the regression gate to cur, reporting failures to
// errw; it returns false when the gate fails.
func runGate(w, errw io.Writer, cur *benchfmt.Snapshot, path string) bool {
	if len(cur.Results) == 0 {
		fmt.Fprintf(errw, "GATE FAIL: %s contains no measurements\n", path)
		return false
	}
	ok := true
	gated, defaultGated := 0, 0
	for _, r := range cur.Results {
		if r.Speedup < 1.0 {
			fmt.Fprintf(errw, "GATE FAIL: %s event_vs_percycle_speedup = %.3f < 1.0\n",
				r.Key(), r.Speedup)
			ok = false
		}
		if r.Shards >= 4 && r.GOMAXPROCS >= 4 {
			gated++
			if r.ParallelSpeedup < 1.0 {
				fmt.Fprintf(errw,
					"GATE FAIL: %s parallel_vs_serial_speedup = %.3f < 1.0 (shards=%d, gomaxprocs=%d)\n",
					r.Key(), r.ParallelSpeedup, r.Shards, r.GOMAXPROCS)
				ok = false
			}
		}
		if r.DefaultShards >= 2 && r.GOMAXPROCS >= 2 {
			defaultGated++
			if r.ParallelSpeedup < 1.0 {
				fmt.Fprintf(errw,
					"GATE FAIL: %s default engine is sharded (default_shards=%d, gomaxprocs=%d) but parallel_vs_serial_speedup = %.3f < 1.0\n",
					r.Key(), r.DefaultShards, r.GOMAXPROCS, r.ParallelSpeedup)
				ok = false
			}
		}
	}
	scaleGated := 0
	for _, p := range cur.Scaling {
		if p.Cores < 64 {
			continue
		}
		scaleGated++
		if p.Speedup < 1.0 {
			fmt.Fprintf(errw,
				"GATE FAIL: scaling %s/%s@%d cores event_vs_percycle_speedup = %.3f < 1.0\n",
				p.Benchmark, p.Protocol, p.Cores, p.Speedup)
			ok = false
		}
	}
	if !ok {
		return false
	}
	fmt.Fprintf(w, "gate ok: event engine >= per-cycle on all %d benchmarks\n", len(cur.Results))
	if gated > 0 {
		fmt.Fprintf(w, "gate ok: sharded engine >= serial on all %d parallel-timed benchmarks\n", gated)
	}
	if defaultGated > 0 {
		fmt.Fprintf(w, "gate ok: sharded default engine >= serial on all %d benchmarks\n", defaultGated)
	}
	if scaleGated > 0 {
		fmt.Fprintf(w, "gate ok: event engine >= per-cycle on all %d scaling points at >= 64 cores\n", scaleGated)
	}
	return true
}

// deltaStr renders "old -> new (+x%)" (the percentage is new vs old).
func deltaStr(o, n float64) string {
	if o == 0 {
		return fmt.Sprintf("-> %.2f", n)
	}
	pct := 100 * (n - o) / o
	return fmt.Sprintf("%.1f -> %.1f (%+.0f%%)", o, n, pct)
}

// obsDeltaStr is deltaStr for optional series: both sides absent
// (pre-obs snapshots) renders "-", an absent old side "-> new".
func obsDeltaStr(o, n float64) string {
	if o == 0 && n == 0 {
		return "-"
	}
	return deltaStr(o, n)
}
