package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// cell is one simulation a command runs: a generated workload on a
// protocol, or (tracePath set) a trace replay.
type cell struct {
	key       string // "bench/protocol", as the CLIs name a run
	cfg       config.System
	proto     system.Protocol
	entry     *workloads.Entry
	params    workloads.Params
	tracePath string
	memOps    int64 // memory operations in the trace, for a replay
}

// built is a cell after set-up, ready to execute.
type built struct {
	m  *system.Machine
	w  *program.Workload // nil for a replay
	tr *trace.Trace      // nil for a program cell
	// gen is workload generation, or reading and decoding the trace;
	// construct is machine construction.
	gen, construct time.Duration
	traceBytes     int
}

// build performs a cell's set-up through the calls its CLI makes, with
// the given observability armed (nil for an untraced build).
func (c *cell) build(o *obs.Obs) (*built, error) {
	b := &built{}
	t0 := time.Now()
	cfg := c.cfg
	if c.tracePath != "" {
		data, err := os.ReadFile(c.tracePath)
		if err != nil {
			return nil, err
		}
		if b.tr, err = trace.Decode(data); err != nil {
			return nil, err
		}
		b.traceBytes = len(data)
		cfg = b.tr.Meta.Sys
	} else {
		b.w = c.entry.Gen(c.params)
	}
	t1 := time.Now()
	b.gen = t1.Sub(t0)
	cfg.Obs = o
	var err error
	if b.tr != nil {
		b.m, err = system.NewReplayMachine(cfg, c.proto, b.tr)
	} else {
		b.m, err = system.NewMachine(cfg, c.proto, b.w)
	}
	b.construct = time.Since(t1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.key, err)
	}
	return b, nil
}

// setupOnce times one set-up of every cell, summed: what the command
// spends before its first simulated cycle. A collection runs first so
// garbage from the previous pass is not charged to this one.
func setupOnce(cells []cell) (time.Duration, error) {
	runtime.GC()
	var total time.Duration
	for i := range cells {
		b, err := cells[i].build(nil)
		if err != nil {
			return 0, err
		}
		total += b.gen + b.construct
	}
	return total, nil
}

// cellRun is the outcome of one observed in-process cell. It keeps the
// figures the report needs, not the machine.
type cellRun struct {
	key                        string
	gen, construct             time.Duration
	run, collect, check, total time.Duration
	cycles                     int64
	res                        *system.Result
	counters, gauges           []obs.MetricValue
	hists                      []obs.HistSnapshot
	shards, cores              int
	memReads, memWrites        int64
	replay                     bool
	traceBytes, traceOps       int64
}

// execLabel marks the samples the CPU profile takes inside
// Machine.Execute; goroutines the engine starts inherit it.
var execLabel = pprof.Labels("perfbench", "execute")

// observeCell runs one cell through the CLI's public calls with a
// metrics registry armed, timing each: set-up, Machine.Execute (under
// execLabel), Collect and the workload's Check.
func observeCell(c *cell) (*cellRun, error) {
	t0 := time.Now()
	reg := obs.NewRegistry()
	b, err := c.build(&obs.Obs{Metrics: reg})
	if err != nil {
		return nil, err
	}
	m := b.m
	r := &cellRun{key: c.key, gen: b.gen, construct: b.construct,
		shards: m.Shards(), cores: m.Cfg.Cores, replay: b.tr != nil}
	if b.tr != nil {
		r.traceBytes, r.traceOps = int64(b.traceBytes), int64(b.tr.Ops())
	}
	var cyc sim.Cycle
	t1 := time.Now()
	pprof.Do(context.Background(), execLabel, func(context.Context) {
		cyc, err = m.Execute()
	})
	r.run = time.Since(t1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.key, err)
	}
	t2 := time.Now()
	r.res = m.Collect(cyc)
	r.collect = time.Since(t2)
	if b.w != nil && b.w.Check != nil {
		t3 := time.Now()
		err = b.w.Check(m.Reader())
		r.check = time.Since(t3)
		if err != nil {
			return nil, fmt.Errorf("%s: functional check: %w", c.key, err)
		}
	}
	r.total = time.Since(t0)
	r.cycles = int64(cyc)
	r.memReads, r.memWrites = m.Mem.Stats()
	// Snapshot the registry: its counters and gauges point into the
	// machine, which a grid's 112 cells should not keep alive.
	r.counters, r.gauges, r.hists = reg.Counters(), reg.Gauges(), reg.Hists()
	r.res.Mem = nil
	return r, nil
}

// observeAll runs every cell the way the command schedules them: a grid
// on as many workers as tsocc-bench's harness uses (GOMAXPROCS), a
// single run on one.
func observeAll(cells []cell) ([]*cellRun, error) {
	runs := make([]*cellRun, len(cells))
	workers := min(runtime.GOMAXPROCS(0), len(cells))
	next := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r, err := observeCell(&cells[i])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				runs[i] = r
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	return runs, firstErr
}
