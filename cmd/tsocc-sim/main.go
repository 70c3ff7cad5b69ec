// Command tsocc-sim runs one benchmark from the Table 3 suite on one
// protocol configuration and prints the run's statistics.
//
// Usage:
//
//	tsocc-sim -bench intruder -proto TSO-CC-4-12-3 -cores 32 -scale 1
//	tsocc-sim -list
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/shrink"
	"repro/internal/system"
	"repro/internal/workloads"
)

func main() {
	bench := flag.String("bench", "intruder", "benchmark name (see -list-workloads)")
	proto := flag.String("proto", "TSO-CC-4-12-3", "protocol configuration (see -list-protocols)")
	cores := flag.Int("cores", 32, "core count")
	scale := flag.Int("scale", 1, "workload size multiplier")
	seed := flag.Uint64("seed", 1, "workload seed")
	faultSpec := flag.String("faults", "", "fault-injection profile(s): jitter, pressure, burst, evict, reset-storm, victim; parameterized name:key=val and composed with + or , (empty = off)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection seed")
	faultFrom := flag.Uint64("fault-from", 0, "fault decision-counter window start (shrinker replay)")
	faultUntil := flag.Uint64("fault-until", 0, "fault decision-counter window end, exclusive (0 = unbounded)")
	checks := flag.Bool("checks", false, "enable runtime invariant oracles (SWMR, value, TSO order, protocol legality, tx lifecycle)")
	doShrink := flag.Bool("shrink", false, "reduce a failing fault-injected run to a minimal (scale, fault-window) reproducer")
	shards := flag.Int("shards", 0, "engine shards (0 or 1 = single-threaded wake-set engine, the fastest measured; N>=2 = sharded across N goroutines, bit-identical)")
	list := flag.Bool("list", false, "list workloads and protocols")
	listW := flag.Bool("list-workloads", false, "list workloads (registry + synthetic extras) and exit")
	listP := flag.Bool("list-protocols", false, "list registered protocols and exit")
	metricsOut := flag.String("metrics", "", "write the metrics-registry dump to this file (.json = JSON, else text)")
	timelineOut := flag.String("timeline", "", "write a Chrome trace-event timeline (Perfetto / chrome://tracing) to this file")
	flag.Parse()

	if *list || *listW || *listP {
		if *list || *listW {
			harness.ListWorkloads(os.Stdout)
		}
		if *list {
			fmt.Println("protocols:")
		}
		if *list || *listP {
			harness.ListProtocols(os.Stdout)
		}
		return
	}

	var chosen system.Protocol
	for _, p := range harness.Protocols() {
		if p.Name() == *proto {
			chosen = p
		}
	}
	if chosen == nil {
		fmt.Fprintf(os.Stderr, "unknown protocol %q (see -list)\n", *proto)
		os.Exit(2)
	}
	e := workloads.ByName(*bench)
	if e == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (see -list)\n", *bench)
		os.Exit(2)
	}

	cfg := config.Scaled(*cores)
	cfg.FaultProfile = *faultSpec
	cfg.FaultSeed = *faultSeed
	cfg.FaultFrom = *faultFrom
	cfg.FaultUntil = *faultUntil
	cfg.Checks = *checks
	cfg.Shards = *shards
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *doShrink {
		if *faultSpec == "" {
			fmt.Fprintln(os.Stderr, "-shrink needs a fault profile (-faults)")
			os.Exit(2)
		}
		runShrink(cfg, chosen, e, *bench, *proto, *cores, *scale, *seed, *faultSpec, *faultSeed)
		return
	}

	cfg.Obs = obs.FromPaths(*metricsOut, *timelineOut)

	w := e.Gen(workloads.Params{Threads: *cores, Scale: *scale, Seed: *seed})
	res, err := system.Run(cfg, chosen, w)
	// Dump the armed sinks even on failure: a deadlocked or
	// cycle-limited run's partial timeline is exactly what forensics
	// wants to look at.
	var final int64
	if res != nil {
		final = int64(res.Cycles)
	}
	if werr := cfg.Obs.WriteFiles(*metricsOut, *timelineOut, final); werr != nil {
		fmt.Fprintln(os.Stderr, werr)
		if err == nil {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulation failed:", err)
		os.Exit(1)
	}
	fmt.Print(res.Summary())
	fmt.Printf("\nself-invalidation causes:\n")
	for c := coherence.SelfInvCause(0); c < coherence.NumSelfInvCauses; c++ {
		fmt.Printf("  %-28s %d\n", c, res.L1.SelfInvEvents[c].Value())
	}
	if res.CheckErr != nil {
		fmt.Fprintln(os.Stderr, "FUNCTIONAL CHECK FAILED:", res.CheckErr)
		os.Exit(1)
	}
	fmt.Println("\nfunctional check: ok")
}

// runShrink reduces a failing fault-injected run to a minimal
// (workload scale, fault-window) reproducer and prints the replay
// command line. Shrink probes force checks on and run serially: the
// oracle tracker and the injector's decision-counter tracking are both
// single-threaded referees.
func runShrink(cfg config.System, proto system.Protocol, e *workloads.Entry,
	bench, protoName string, cores, scale int, seed uint64, faultSpec string, faultSeed uint64) {
	cfg.Checks = true
	cfg.Shards = 1
	probe := func(scale int, from, until uint64) shrink.Outcome {
		c := cfg
		c.FaultFrom, c.FaultUntil = from, until
		w := e.Gen(workloads.Params{Threads: cores, Scale: scale, Seed: seed})
		m, err := system.NewMachine(c, proto, w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shrink probe failed to build:", err)
			os.Exit(1)
		}
		out := shrink.Outcome{}
		_, rerr := m.Execute()
		out.MaxCounter = m.Injector().MaxCounter()
		if viols, n := m.Checks().Violations(); n > 0 {
			out.Failed = true
			out.Kind = viols[0].Kind
			out.Detail = viols[0].String()
		} else if rerr != nil {
			out.Failed = true
			out.Kind = "error"
			out.Detail = rerr.Error()
		} else if w.Check != nil {
			if cerr := w.Check(m.Reader()); cerr != nil {
				out.Failed = true
				out.Kind = "functional"
				out.Detail = cerr.Error()
			}
		}
		return out
	}
	fmt.Printf("shrinking %s on %s with faults %q (seed %d)...\n", bench, protoName, faultSpec, faultSeed)
	r, err := shrink.Shrink(shrink.Input{Scale: scale, Run: probe})
	if err != nil {
		fmt.Fprintln(os.Stderr, "shrink:", err)
		os.Exit(1)
	}
	fmt.Printf("reduced to scale=%d fault window=[%d,%d) after %d probes\n", r.Scale, r.From, r.Until, r.Probes)
	fmt.Printf("violation [%s]: %s\n", r.Kind, r.Detail)
	fmt.Println("repro:", r.CommandLine(bench, protoName, cores, seed, faultSpec, faultSeed))
}
