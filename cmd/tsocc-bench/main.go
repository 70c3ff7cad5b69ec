// Command tsocc-bench reproduces the paper's evaluation: it runs the
// full benchmark × protocol grid at 32 cores and prints Figures 3–9 (as
// text tables), plus the Table 1 / Figure 2 storage analysis.
//
// Usage:
//
//	tsocc-bench                  # everything
//	tsocc-bench -figure 3        # one figure
//	tsocc-bench -bench intruder  # restrict benchmarks
//	tsocc-bench -cores 16 -scale 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/storagemodel"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tsocc"
	"repro/internal/workloads"
)

func main() {
	cores := flag.Int("cores", 32, "core count")
	scale := flag.Int("scale", 1, "workload size multiplier")
	seed := flag.Uint64("seed", 1, "workload seed")
	figure := flag.Int("figure", 0, "single figure to produce (2-9; 0 = all)")
	benchList := flag.String("bench", "", "comma-separated benchmark subset")
	protoList := flag.String("proto", "", "comma-separated protocol subset (registry names; default all)")
	listProtos := flag.Bool("list-protocols", false, "list registered protocols and exit")
	listWorkloads := flag.Bool("list-workloads", false, "list workloads (registry + synthetic extras) and exit")
	traceOut := flag.String("trace-out", "", "record a single -bench × -proto run into this trace file and exit")
	traceIn := flag.String("trace-in", "", "replay this trace file (optionally under -proto) and exit")
	quiet := flag.Bool("q", false, "suppress per-run progress")
	perf := flag.Bool("perf", false, "report simulator throughput (cycles/sec, ns/simcycle) as JSON and exit")
	scaling := flag.String("scaling", "", "-perf only: comma-separated core counts for the scaling-curve leg (e.g. 8,64,128,256; empty = off)")
	batched := flag.Bool("batched", true, "batched straight-line core execution (config.System.BatchedCore)")
	shards := flag.Int("shards", 0, "engine shards (0 or 1 = single-threaded wake-set engine, the fastest measured; N>=2 = sharded across N goroutines, bit-identical); the grid runs GOMAXPROCS cells at once, so an explicit N there means N x GOMAXPROCS goroutines")
	faultSpec := flag.String("faults", "", "fault-injection profile(s): jitter, pressure, burst, evict, reset-storm, victim; parameterized name:key=val and composed with + or , (empty = off)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection seed")
	checks := flag.Bool("checks", false, "enable runtime invariant oracles (SWMR, value, TSO order)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on (successful) exit")
	metricsOut := flag.String("metrics", "", "trace mode only: write the metrics-registry dump to this file (.json = JSON, else text)")
	timelineOut := flag.String("timeline", "", "trace mode only: write a Chrome trace-event timeline (Perfetto / chrome://tracing) to this file")
	pprofLabels := flag.Bool("pprof-labels", false, "label goroutines and component ticks for -cpuprofile attribution (adds host-time cost)")
	flag.Parse()

	// Profiles cover the whole selected mode (grid or -perf); error
	// paths exit through os.Exit and intentionally skip them.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	if *listProtos || *listWorkloads {
		if *listWorkloads {
			harness.ListWorkloads(os.Stdout)
		}
		if *listProtos {
			harness.ListProtocols(os.Stdout)
		}
		return
	}
	// Reject a bad geometry before any mode generates a workload for it.
	base := config.Scaled(*cores)
	base.Shards = *shards
	if err := base.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var protos []system.Protocol
	if *protoList != "" {
		for _, name := range strings.Split(*protoList, ",") {
			p, err := coherence.ProtocolByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			protos = append(protos, p)
		}
	}

	if *traceOut != "" || *traceIn != "" {
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if err := runTraceMode(*traceOut, *traceIn, *benchList, protos,
			*cores, *scale, *seed, *shards, explicit,
			*metricsOut, *timelineOut, *pprofLabels); err != nil {
			fmt.Fprintln(os.Stderr, "trace mode:", err)
			os.Exit(1)
		}
		return
	}

	if *metricsOut != "" || *timelineOut != "" {
		// Grid legs share one config across parallel workers and -perf
		// arms its own registry for the snapshot series; a per-run dump
		// belongs to the single-run CLIs.
		fmt.Fprintln(os.Stderr, "-metrics/-timeline apply to trace mode only; for a single observed run use tsocc-sim")
		os.Exit(1)
	}

	if *perf {
		// -perf times every engine/core mode itself; a -batched
		// selection would be silently meaningless, so reject it.
		explicitBatched := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "batched" {
				explicitBatched = true
			}
		})
		if explicitBatched {
			fmt.Fprintln(os.Stderr, "-batched has no effect under -perf (all modes are timed); drop it or use the grid mode")
			os.Exit(1)
		}
		var benches []string
		if *benchList != "" {
			benches = strings.Split(*benchList, ",")
		}
		scalingCores, err := parseScaling(*scaling)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := runPerf(*cores, *scale, *seed, *shards, benches, protos,
			*faultSpec, *faultSeed, *checks, *pprofLabels, scalingCores); err != nil {
			fmt.Fprintln(os.Stderr, "perf failed:", err)
			os.Exit(1)
		}
		return
	}
	if *scaling != "" {
		fmt.Fprintln(os.Stderr, "-scaling applies to -perf only")
		os.Exit(1)
	}

	// Storage figures need no simulation.
	if *figure == 2 {
		fmt.Println(storagemodel.Figure2([]int{8, 16, 32, 48, 64, 80, 96, 112, 128}))
		return
	}

	var benches []string
	if *benchList != "" {
		benches = strings.Split(*benchList, ",")
	}
	cfg := config.Scaled(*cores)
	cfg.BatchedCore = *batched
	cfg.FaultProfile = *faultSpec
	cfg.FaultSeed = *faultSeed
	cfg.Checks = *checks
	cfg.Shards = *shards
	if *pprofLabels {
		cfg.Obs = &obs.Obs{ProfileLabels: true}
	}
	p := workloads.Params{Threads: *cores, Scale: *scale, Seed: *seed}

	progress := os.Stderr
	if *quiet {
		progress = nil
	}
	t0 := time.Now()
	grid, err := harness.RunGrid(cfg, p, protos, benches, progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "grid failed:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "grid complete in %v\n\n", time.Since(t0).Round(time.Millisecond))

	show := func(n int) bool { return *figure == 0 || *figure == n }
	if show(3) {
		fmt.Println(grid.Figure3())
	}
	if show(4) {
		fmt.Println(grid.Figure4())
	}
	if show(5) {
		fmt.Println(grid.Figure5())
	}
	if show(6) {
		fmt.Println(grid.Figure6())
	}
	if show(7) {
		fmt.Println(grid.Figure7())
	}
	if show(8) {
		fmt.Println(grid.Figure8())
	}
	if show(9) {
		fmt.Println(grid.Figure9())
	}
	if *figure == 0 {
		fmt.Println(storagemodel.Table1(*cores))
		fmt.Println(storagemodel.Figure2([]int{8, 16, 32, 48, 64, 80, 96, 112, 128}))
		fmt.Println(grid.SummaryHighlights())
	}
}

// runTraceMode serves -trace-out (record one benchmark × protocol cell
// into a trace file) and -trace-in (replay a trace file on its recorded
// geometry — or an explicit -cores override — optionally on a different
// protocol).
func runTraceMode(traceOut, traceIn, benchList string, protos []system.Protocol,
	cores, scale int, seed uint64, shards int, explicit map[string]bool,
	metricsOut, timelineOut string, pprofLabels bool) error {

	if traceOut != "" && traceIn != "" {
		return fmt.Errorf("-trace-out and -trace-in are mutually exclusive")
	}
	obsCfg := obs.FromPaths(metricsOut, timelineOut)
	if pprofLabels {
		if obsCfg == nil {
			obsCfg = &obs.Obs{}
		}
		obsCfg.ProfileLabels = true
	}
	if traceOut != "" {
		if strings.Contains(benchList, ",") || len(protos) > 1 {
			return fmt.Errorf("-trace-out records a single run: select exactly one -bench and at most one -proto")
		}
		bench := strings.TrimSpace(benchList)
		if bench == "" {
			return fmt.Errorf("-trace-out requires -bench")
		}
		e := workloads.ByName(bench)
		if e == nil {
			return fmt.Errorf("unknown benchmark %q", bench)
		}
		proto := system.Protocol(tsocc.New(config.C12x3()))
		if len(protos) == 1 {
			proto = protos[0]
		}
		cfg := config.Scaled(cores)
		cfg.Shards = shards
		cfg.Obs = obsCfg
		w := e.Gen(workloads.Params{Threads: cores, Scale: scale, Seed: seed})
		res, tr, err := system.RunRecorded(cfg, proto, w, seed)
		var final int64
		if res != nil {
			final = int64(res.Cycles)
		}
		if werr := obsCfg.WriteFiles(metricsOut, timelineOut, final); werr != nil && err == nil {
			err = werr
		}
		if err != nil {
			return err
		}
		if res.CheckErr != nil {
			return fmt.Errorf("functional check failed: %w", res.CheckErr)
		}
		if err := trace.WriteFile(traceOut, tr); err != nil {
			return err
		}
		fmt.Print(res.Summary())
		fmt.Printf("\nwrote %s: %d ops across %d streams\n", traceOut, tr.Ops(), len(tr.Streams))
		return nil
	}
	if explicit["bench"] || explicit["scale"] || explicit["seed"] {
		return fmt.Errorf("-trace-in replays the recorded stream; -bench/-scale/-seed have no effect — drop them")
	}
	tr, err := trace.ReadFile(traceIn)
	if err != nil {
		return err
	}
	cfg := tr.Meta.Sys
	cfg.Shards = shards
	if explicit["cores"] {
		cfg.Cores = cores
		cfg.MeshRows = 0
	}
	proto := protos
	if len(proto) == 0 {
		p, err := coherence.ProtocolByName(tr.Meta.Protocol)
		if err != nil {
			return fmt.Errorf("trace recorded under unregistered protocol %q; select one with -proto: %w",
				tr.Meta.Protocol, err)
		}
		proto = []system.Protocol{p}
	}
	if len(proto) > 1 && obsCfg != nil && (metricsOut != "" || timelineOut != "") {
		return fmt.Errorf("-metrics/-timeline observe a single replay: select one -proto")
	}
	cfg.Obs = obsCfg
	for _, p := range proto {
		res, err := system.Replay(cfg, p, tr)
		var final int64
		if res != nil {
			final = int64(res.Cycles)
		}
		if werr := obsCfg.WriteFiles(metricsOut, timelineOut, final); werr != nil && err == nil {
			err = werr
		}
		if err != nil {
			return err
		}
		fmt.Print(res.Summary())
		fmt.Println()
	}
	return nil
}

// perfModes are the timed configurations, slowest baseline first; the
// last entry is the production default whose numbers fill the headline
// throughput fields.
var perfModes = []struct {
	perCycle bool
	batched  bool
}{
	{perCycle: true, batched: false},
	{perCycle: false, batched: false},
	{perCycle: false, batched: true},
}

// parseScaling turns the -scaling flag value into a core-count list.
func parseScaling(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var cores []int
	for _, f := range strings.Split(spec, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || c <= 0 || c > config.MaxCores {
			return nil, fmt.Errorf("-scaling: bad core count %q (want 1..%d)", f, config.MaxCores)
		}
		cores = append(cores, c)
	}
	return cores, nil
}

// runPerf measures simulated-cycles-per-second for each benchmark ×
// protocol under every engine/core mode and prints one JSON array. With
// no -proto selection it measures the paper's best realistic
// configuration. The synthetic "dense-compute" ALU workload (the
// batched-core acceptance case) is always appended to the selection.
func runPerf(cores, scale int, seed uint64, shards int, benches []string, protos []system.Protocol,
	faultSpec string, faultSeed uint64, checks bool, pprofLabels bool, scalingCores []int) error {
	// The scaling leg re-times real workloads at each requested machine
	// size; the synthetic ALU benchmark would only measure the batched
	// core, so it is excluded even when -bench selects it.
	var scalingBenches []string
	if len(benches) == 0 {
		scalingBenches = []string{"canneal", "ssca2"}
	} else {
		for _, b := range benches {
			if b != "dense-compute" {
				scalingBenches = append(scalingBenches, b)
			}
		}
	}
	if len(benches) == 0 {
		benches = []string{"canneal", "x264", "ssca2"}
	}
	hasDense := false
	for _, b := range benches {
		if b == "dense-compute" {
			hasDense = true
		}
	}
	if !hasDense {
		benches = append(benches, "dense-compute")
	}
	if len(protos) == 0 {
		protos = []system.Protocol{tsocc.New(config.C12x3())}
	}
	p := workloads.Params{Threads: cores, Scale: scale, Seed: seed}
	// The snapshot schema (host metadata + one record per benchmark ×
	// protocol) is shared with its reader, tsocc-benchdiff, via
	// internal/benchfmt.
	out := benchfmt.Snapshot{Host: benchfmt.Host{
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		ChecksEnabled: checks,
	}}
	for _, bench := range benches {
		e := workloads.ByName(bench)
		if e == nil {
			return fmt.Errorf("unknown benchmark %q", bench)
		}
		gen := e.Gen
		for _, proto := range protos {
			rec := benchfmt.Record{Benchmark: bench, Protocol: proto.Name(), Cores: cores}
			for _, mode := range perfModes {
				cfg := config.Scaled(cores)
				cfg.PerCycleEngine = mode.perCycle
				cfg.BatchedCore = mode.batched
				cfg.FaultProfile = faultSpec
				cfg.FaultSeed = faultSeed
				cfg.Checks = checks
				if pprofLabels {
					cfg.Obs = &obs.Obs{ProfileLabels: true}
				}
				best := time.Duration(0)
				var cycles int64
				var skipped int64
				for rep := 0; rep < 3; rep++ {
					m, err := system.NewMachine(cfg, proto, gen(p))
					if err != nil {
						return err
					}
					m.Prewarm()
					t0 := time.Now()
					cyc, err := m.Engine.Run()
					if err != nil {
						return err
					}
					if d := time.Since(t0); best == 0 || d < best {
						best = d
						skipped = m.Engine.IdleSkipped
					}
					cycles = int64(cyc)
				}
				nsPerCycle := float64(best.Nanoseconds()) / float64(cycles)
				switch {
				case mode.perCycle:
					rec.WallNsPerCycle = nsPerCycle
				case !mode.batched:
					rec.WallNsUnbatched = nsPerCycle
				default:
					rec.WallNsEvent = nsPerCycle
					rec.SimCycles = cycles
					rec.CyclesPerSec = float64(cycles) / best.Seconds()
					rec.HostNsPerCycle = nsPerCycle
					rec.SkippedPct = 100 * float64(skipped) / float64(cycles)
				}
			}
			if rec.WallNsEvent > 0 {
				rec.Speedup = rec.WallNsPerCycle / rec.WallNsEvent
				rec.BatchedSpeedup = rec.WallNsUnbatched / rec.WallNsEvent
			}
			defCfg := config.Scaled(cores)
			defCfg.Shards = shards
			defCfg.Checks = checks
			rec.DefaultShards = system.ResolveShards(defCfg)
			if err := measureParallel(&rec, cores, shards, proto, gen, p,
				faultSpec, faultSeed, checks); err != nil {
				return err
			}
			if err := measureTrace(&rec, cores, proto, gen(p)); err != nil {
				return err
			}
			if err := measureObs(&rec, cores, proto, gen, p, faultSpec, faultSeed, checks); err != nil {
				return err
			}
			out.Results = append(out.Results, rec)
		}
	}
	for _, c := range scalingCores {
		for _, bench := range scalingBenches {
			e := workloads.ByName(bench)
			if e == nil {
				return fmt.Errorf("unknown benchmark %q", bench)
			}
			pt, err := measureScaling(c, scale, seed, shards, e.Gen, protos[0],
				faultSpec, faultSeed, checks)
			if err != nil {
				return fmt.Errorf("scaling leg %s@%d cores: %w", bench, c, err)
			}
			pt.Benchmark = bench
			out.Scaling = append(out.Scaling, pt)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// parallelLegShards is the shard count -perf times the sharded engine
// at: an explicit -shards N >= 2, else GOMAXPROCS, clamped to the core
// count. The default engine is serial, but every snapshot from a
// multi-CPU host still records how the sharded engine compares.
func parallelLegShards(shards, cores int) int {
	if shards < 2 {
		shards = runtime.GOMAXPROCS(0)
	}
	return min(shards, cores)
}

// measureScaling times one benchmark × protocol cell at an arbitrary
// machine size (the Large preset: Table 2 per-tile shape, auto mesh)
// under the per-cycle and batched-event engines, plus the sharded
// engine when parallelLegShards exceeds 1. Two reps best-of per
// engine: the curve spans up to 256 cores, so the leg trades a little
// timing stability for a bounded total run.
func measureScaling(cores, scale int, seed uint64, shards int, gen workloads.Generator,
	proto system.Protocol, faultSpec string, faultSeed uint64, checks bool) (benchfmt.ScalingPoint, error) {
	pt := benchfmt.ScalingPoint{Protocol: proto.Name(), Cores: cores}
	p := workloads.Params{Threads: cores, Scale: scale, Seed: seed}
	for _, perCycle := range []bool{true, false} {
		cfg := config.Large(cores)
		cfg.PerCycleEngine = perCycle
		cfg.BatchedCore = !perCycle
		cfg.FaultProfile = faultSpec
		cfg.FaultSeed = faultSeed
		cfg.Checks = checks
		best := time.Duration(0)
		var cycles int64
		for rep := 0; rep < 2; rep++ {
			m, err := system.NewMachine(cfg, proto, gen(p))
			if err != nil {
				return pt, err
			}
			m.Prewarm()
			t0 := time.Now()
			cyc, err := m.Engine.Run()
			if err != nil {
				return pt, err
			}
			if d := time.Since(t0); best == 0 || d < best {
				best = d
			}
			cycles = int64(cyc)
		}
		ns := float64(best.Nanoseconds()) / float64(cycles)
		if perCycle {
			pt.WallNsPerCycle = ns
		} else {
			pt.WallNsEvent = ns
			pt.SimCycles = cycles
		}
	}
	if pt.WallNsEvent > 0 {
		pt.Speedup = pt.WallNsPerCycle / pt.WallNsEvent
	}
	shards = parallelLegShards(shards, cores)
	if shards <= 1 || checks {
		return pt, nil
	}
	cfg := config.Large(cores)
	cfg.BatchedCore = true
	cfg.FaultProfile = faultSpec
	cfg.FaultSeed = faultSeed
	cfg.Shards = shards
	best := time.Duration(0)
	var cycles int64
	for rep := 0; rep < 2; rep++ {
		m, err := system.NewMachine(cfg, proto, gen(p))
		if err != nil {
			return pt, err
		}
		m.Prewarm()
		t0 := time.Now()
		cyc, err := m.SE.Run()
		if err != nil {
			return pt, err
		}
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
		cycles = int64(cyc)
	}
	pt.Shards = shards
	pt.GOMAXPROCS = runtime.GOMAXPROCS(0)
	pt.WallNsParallel = float64(best.Nanoseconds()) / float64(cycles)
	return pt, nil
}

// measureParallel fills a record's sharded-engine fields: the batched
// event configuration (the production default, whose serial number is
// WallNsEvent) re-timed with the wake-set engine sharded across
// parallelLegShards goroutines. The leg is skipped — fields left zero —
// on a single-CPU runner without an explicit -shards N >= 2, or when
// the oracles are on (checks force the serial engine). ParallelSpeedup
// is a within-run wall-time ratio, but unlike the engine-mode speedups
// it only demonstrates anything when GOMAXPROCS >= Shards, so the
// per-record GOMAXPROCS is recorded alongside for the benchdiff gate.
func measureParallel(rec *benchfmt.Record, cores, shards int, proto system.Protocol,
	gen workloads.Generator, p workloads.Params, faultSpec string, faultSeed uint64, checks bool) error {
	shards = parallelLegShards(shards, cores)
	if shards <= 1 || checks {
		return nil
	}
	cfg := config.Scaled(cores)
	cfg.BatchedCore = true
	cfg.FaultProfile = faultSpec
	cfg.FaultSeed = faultSeed
	cfg.Shards = shards
	best := time.Duration(0)
	var cycles int64
	for rep := 0; rep < 3; rep++ {
		m, err := system.NewMachine(cfg, proto, gen(p))
		if err != nil {
			return err
		}
		m.Prewarm()
		t0 := time.Now()
		cyc, err := m.SE.Run()
		if err != nil {
			return err
		}
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
		cycles = int64(cyc)
	}
	rec.Shards = shards
	rec.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rec.WallNsParallel = float64(best.Nanoseconds()) / float64(cycles)
	if rec.WallNsEvent > 0 && rec.WallNsParallel > 0 {
		rec.ParallelSpeedup = rec.WallNsEvent / rec.WallNsParallel
	}
	return nil
}

// measureObs fills a record's observability series from one extra
// metrics-armed run of the production configuration (batched event
// engine, serial). Observation never perturbs simulation, but the run
// is done separately so the timed legs stay unobserved host-side.
func measureObs(rec *benchfmt.Record, cores int, proto system.Protocol,
	gen workloads.Generator, p workloads.Params, faultSpec string, faultSeed uint64, checks bool) error {
	cfg := config.Scaled(cores)
	cfg.BatchedCore = true
	cfg.FaultProfile = faultSpec
	cfg.FaultSeed = faultSeed
	cfg.Checks = checks
	reg := obs.NewRegistry()
	cfg.Obs = &obs.Obs{Metrics: reg}
	m, err := system.NewMachine(cfg, proto, gen(p))
	if err != nil {
		return err
	}
	if _, err := m.Engine.Run(); err != nil {
		return err
	}
	rec.TxLatencyMean = reg.HistSnapshotFor("coherence.tx_latency").Mean()
	rd := reg.HistSnapshotFor("l1.read_miss_latency")
	wr := reg.HistSnapshotFor("l1.write_miss_latency")
	if n := rd.Count + wr.Count; n > 0 {
		rec.L1MissLatencyMean = float64(rd.Sum+wr.Sum) / float64(n)
	}
	// Total truly stalled cycles: every stall series except the
	// batch-interior attribution (retired compute, not a stall).
	for _, h := range reg.Hists() {
		if strings.Contains(h.Name, ".stall.") && !strings.HasSuffix(h.Name, ".stall.batch_interior") {
			rec.StallCycles += h.Sum
		}
	}
	return nil
}

// measureTrace fills a perfRecord's trace-subsystem fields: the
// benchmark is recorded once, the trace replayed three times on the
// event engine (best wall time wins), and the codec timed on an
// encode+decode round trip.
func measureTrace(rec *benchfmt.Record, cores int, proto system.Protocol, w *program.Workload) error {
	cfg := config.Scaled(cores)
	_, tr, err := system.RunRecorded(cfg, proto, w, 1)
	if err != nil {
		return err
	}
	data, err := trace.Encode(tr)
	if err != nil {
		return err
	}
	rec.TraceOps = int64(tr.Ops())
	rec.TraceBytesPerOp = float64(len(data)) / float64(tr.Ops())

	best := time.Duration(0)
	for rep := 0; rep < 3; rep++ {
		m, err := system.NewReplayMachine(cfg, proto, tr)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := m.Engine.Run(); err != nil {
			return err
		}
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	rec.TraceReplayOpsSec = float64(tr.Ops()) / best.Seconds()

	t0 := time.Now()
	const codecReps = 5
	for rep := 0; rep < codecReps; rep++ {
		enc2, err := trace.Encode(tr)
		if err != nil {
			return err
		}
		if _, err := trace.Decode(enc2); err != nil {
			return err
		}
	}
	codecBytes := 2 * codecReps * len(data) // encode + decode per rep
	rec.TraceCodecMBps = float64(codecBytes) / (1 << 20) / time.Since(t0).Seconds()
	return nil
}
