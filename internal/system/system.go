// Package system wires a complete simulated CMP: cores, a coherence
// protocol's L1/L2 controllers, the mesh interconnect and memory — and
// runs a workload on it to completion, collecting the statistics the
// paper's figures are built from.
package system

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"repro/internal/check"
	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/memsys"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Protocol is the coherence-protocol factory interface, defined in the
// coherence package next to the registry that names every implementation.
// Protocols are resolved by name (coherence.ProtocolByName) or passed as
// values; this package never enumerates the known set.
type Protocol = coherence.Protocol

// Frontend is the engine-facing contract of a workload driver — the
// component that owns one core slot and issues memory operations into
// its L1. cpu.Core (program execution) and trace.ReplayCore
// (trace-driven replay) both implement it, which is what lets
// NewReplayMachine swap the instruction-executing front end for a
// recorded stream while every layer below stays untouched.
type Frontend interface {
	sim.Ticker
	sim.WakeHinter
	sim.WakeSink
	// Done reports whether the frontend has retired its full stream and
	// drained its write buffer.
	Done() bool
	// Counters returns the frontend's named event counters ("coreN.loads",
	// ...): collect derives Result's core-level counts from them and
	// installObs registers them.
	Counters() []*stats.Counter
	// SetStalls attaches stall-attribution histograms (nil = off).
	SetStalls(s *obs.CoreStalls)
}

// Result captures one run's outcome.
type Result struct {
	Protocol string
	Workload string

	Cycles sim.Cycle

	// Aggregated L1 statistics across all cores.
	L1 coherence.L1Stats

	// Network traffic.
	Msgs      int64
	Flits     int64 // flits injected (message sizes)
	FlitHops  int64 // flits x links traversed (reported as "traffic")
	DataFlits int64
	CtrlFlits int64

	// Core-level counts.
	Loads, Stores, RMWs, Fences, Instructions int64

	// L2 tile events (TSO-CC only; zero for MESI).
	SROTransitions int64 // lines that entered SharedRO
	DecayEvents    int64 // Shared->SharedRO decays
	SROInvBcasts   int64 // writes to SharedRO lines (broadcast rounds)
	L2TSResets     int64 // tile timestamp-source wraps

	// Message-pool accounting. PoolLive must be zero after a clean run:
	// the TxTable/controller ownership discipline returns every pooled
	// message once the system quiesces, so a non-zero value is a leak.
	PoolGets int64
	PoolLive int64

	// TxLive counts directory transactions registered but never retired
	// across all tiles; like PoolLive it must be zero after a clean run.
	TxLive int64

	Mem *memsys.Memory // final memory state (for workload checks)

	CheckErr error // workload functional check outcome
}

// quiesceDoner declares the system done when all cores have halted and
// the memory system has gone idle. The check runs every engine
// iteration, so it probes the component that was busy last time first:
// while the system is running, that single probe usually answers.
type quiesceDoner struct {
	cores []Frontend
	l1s   []coherence.L1Like
	l2s   []coherence.Directory
	net   *mesh.Network

	lastBusyCore int
	lastBusyL1   int
	lastBusyL2   int
}

func (q *quiesceDoner) Done() bool {
	if !q.cores[q.lastBusyCore].Done() {
		return false
	}
	if q.l1s[q.lastBusyL1].Busy() || q.l2s[q.lastBusyL2].Busy() {
		return false
	}
	for i, c := range q.cores {
		if !c.Done() {
			q.lastBusyCore = i
			return false
		}
	}
	if q.net.Pending() > 0 {
		return false
	}
	for i, l := range q.l1s {
		if l.Busy() {
			q.lastBusyL1 = i
			return false
		}
	}
	for i, l := range q.l2s {
		if l.Busy() {
			q.lastBusyL2 = i
			return false
		}
	}
	return true
}

// Machine is a fully wired system ready to run one workload.
type Machine struct {
	Cfg config.System
	// Engine is the single-threaded wake-set engine; nil when the
	// machine runs sharded (SE set instead). Exactly one of the two is
	// non-nil.
	Engine *sim.Engine
	// SE is the sharded parallel engine (cfg.Shards >= 2 after
	// resolution); nil in single-threaded mode.
	SE     *sim.ShardedEngine
	Net    *mesh.Network
	Mem    *memsys.Memory
	Cores  []*cpu.Core // program-mode cores (empty for replay machines)
	Fronts []Frontend  // every workload driver, program or replay
	L1s    []coherence.L1Like
	L2s    []coherence.Directory
	proto  Protocol

	// shardOfTile maps each tile to its owning shard (nil when serial);
	// frontCore maps each Fronts slot to its core/tile number.
	shardOfTile []int
	frontCore   []int

	// inj is the fault injector (nil unless cfg.FaultProfile is set);
	// checks the invariant-oracle tracker (nil unless cfg.Checks).
	inj    *faults.Injector
	checks *check.Tracker

	workload string // result label (workload or trace name)
}

// Checks exposes the oracle tracker (nil when cfg.Checks is off), so
// tests can inspect recorded violations directly.
func (m *Machine) Checks() *check.Tracker { return m.checks }

// Prewarm materializes every controller's lazily-allocated cache
// storage. Timing harnesses call it before starting the clock so
// first-touch chunk allocation is setup cost, not measured run cost;
// conformance and litmus runs skip it and keep the sparse footprint.
func (m *Machine) Prewarm() {
	for _, l1 := range m.L1s {
		l1.PrewarmStorage()
	}
	for _, l2 := range m.L2s {
		l2.PrewarmStorage()
	}
}

// Shards reports the effective shard count the machine runs with (1 in
// single-threaded mode).
func (m *Machine) Shards() int {
	if m.SE == nil {
		return 1
	}
	return m.SE.Shards()
}

// ResolveShards maps cfg.Shards to the effective shard count: 0 and 1
// select the single-threaded engine, larger values clamp to the core
// count, and PerCycleEngine or Checks force 1 (the per-cycle baseline
// is inherently serial; the oracle tracker observes cross-core order
// through shared state).
//
// 0 (every CLI's default) is serial, with no GOMAXPROCS or core-count
// crossover, because sharding has not been measured to win. On a 2-CPU
// host (seed 1, wall time, -shards 2 against -shards 1) canneal took
// 0.76-0.82 s sharded vs 0.71-0.73 s serial at 64 cores, 2.1-3.2 s vs
// 1.8-2.3 s at 128, and 4.9-5.1 s vs 5.3-5.4 s at 256: a 1.07x win at
// 1.9x the CPU, short of a 1.3x bar at every size. The Figure 3-9 grid
// at 8 cores, which already runs GOMAXPROCS cells side by side, took
// 5.2-6.1 s with every cell at 2 shards and 1.25-1.7 s serial. Hosts
// with 4 or more CPUs are unmeasured.
func ResolveShards(cfg config.System) int {
	k := cfg.Shards
	if k > cfg.Cores {
		k = cfg.Cores
	}
	if k <= 1 || cfg.PerCycleEngine || cfg.Checks {
		return 1
	}
	return k
}

// newBase wires everything below the frontends: engine (serial or
// sharded), mesh, memory (with the initial image loaded) and the
// protocol's L1/L2 controllers.
func newBase(cfg config.System, proto Protocol, initMem map[uint64]uint64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shards := ResolveShards(cfg)
	net := mesh.New(mesh.Config{Routers: cfg.Cores, Rows: cfg.MeshRows})
	m := &Machine{Cfg: cfg, Net: net, proto: proto}
	if shards > 1 {
		// Each shard owns a contiguous run of whole tiles (core + L1 +
		// directory slice), so every intra-cycle stimulation stays
		// shard-local; only mesh messages cross shards. The epoch length
		// is the mesh's conservative lookahead.
		se := sim.NewShardedEngine(shards, net.Lookahead(), cfg.MaxCycles)
		m.SE = se
		m.shardOfTile = make([]int, cfg.Cores)
		for t := range m.shardOfTile {
			m.shardOfTile[t] = t * shards / cfg.Cores
		}
		net.SetShards(mesh.ShardPlan{
			NumShards:     shards,
			ShardOfRouter: m.shardOfTile,
			DispatchPos:   se.DispatchPos,
		})
		se.SetMerge(func(windowEnd sim.Cycle) {
			for s, touched := range net.MergeEpoch(windowEnd) {
				if touched {
					se.MarkShardActive(s)
				}
			}
		})
	} else {
		engine := sim.NewEngine(cfg.MaxCycles)
		engine.SetPerCycle(cfg.PerCycleEngine)
		m.Engine = engine
	}
	mem := memsys.NewMemory()
	mem.Base = cfg.MemBase
	mem.Spread = cfg.MemSpread
	for addr, val := range initMem {
		mem.WriteWord(addr, val)
	}
	if shards > 1 {
		// Bank the backing store by home tile so each bank is only ever
		// accessed by its owning shard's goroutine.
		shardOf, cores := m.shardOfTile, uint64(cfg.Cores)
		mem.Interleave(shards, func(blk uint64) int {
			return shardOf[(blk>>coherence.BlockShift)%cores]
		})
	}
	m.Mem = mem
	l1s, l2s := proto.Build(cfg, net, mem)
	for i := 0; i < cfg.Cores; i++ {
		net.Attach(coherence.L1ID(i), i, endpoint{l1s[i]})
		net.Attach(coherence.L2ID(i, cfg.Cores), i, endpoint{l2s[i]})
	}
	m.L1s, m.L2s = l1s, l2s
	if cfg.FaultProfile != "" {
		inj, err := faults.New(cfg.FaultProfile, cfg.FaultSeed)
		if err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
		m.inj = inj
		if inj.MeshActive() {
			if shards > 1 {
				// One independent decision domain per delivery domain;
				// every (src,dst) pair always lands in the same domain, so
				// the per-pair decision streams match a serial run's.
				for s := 0; s < shards; s++ {
					net.SetShardDelayHook(s, inj.MeshDelayer())
				}
				net.SetMergeDelayHook(inj.MeshDelayer())
			} else {
				net.SetDelayHook(inj.MeshDelay)
			}
		}
		if inj.TxActive() {
			for tile, l2 := range l2s {
				l2.Txs().SetStall(inj.TxStall(tile))
			}
		}
		inj.SetWindow(cfg.FaultFrom, cfg.FaultUntil)
		if shards == 1 {
			// Decision tracking feeds the shrinker's initial window; the
			// counter is only maintained on serial runs (hooks fire on
			// shard goroutines otherwise).
			inj.TrackDecisions()
		}
	}
	if cfg.Checks {
		ctrls := make([]coherence.Controller, len(l1s))
		for i, l := range l1s {
			ctrls[i] = l
		}
		m.checks = check.New(ctrls, m.Engine.Now)
		for tile, l2 := range l2s {
			l2.Txs().ArmAudit(txAuditAge, m.checks.TxLifeSink(tile))
		}
	}
	m.attachHooks()
	return m, nil
}

// attachHooks builds every controller's coherence.Hooks from the fault
// injector, the legality oracle and the metrics registry, and attaches
// them with one SetHooks call per controller.
func (m *Machine) attachHooks() {
	var leg *coherence.Legality
	if m.checks != nil {
		leg = coherence.LegalityByName(m.proto.Name())
	}
	var reg *obs.Registry
	if o := m.Cfg.Obs; o != nil && o.Enabled() {
		reg = o.Metrics
	}
	for core, l1 := range m.L1s {
		h := m.inj.L1Hooks(core)
		if leg != nil {
			h.Transition = m.checks.LegalitySink(core, "L1", &leg.L1)
		}
		if reg != nil {
			// One histogram pair per L1: under the sharded engine each is
			// owned by a single shard goroutine; same-named series merge
			// at dump.
			rh := reg.NewHist("l1.read_miss_latency")
			wh := reg.NewHist("l1.write_miss_latency")
			h.MissLatency = func(read bool, cycles sim.Cycle) {
				if read {
					rh.Observe(int64(cycles))
				} else {
					wh.Observe(int64(cycles))
				}
			}
		}
		l1.SetHooks(h)
	}
	for tile, l2 := range m.L2s {
		h := m.inj.L2Hooks(tile, m.Cfg.Cores)
		if leg != nil {
			h.Transition = m.checks.LegalitySink(tile, "L2", &leg.L2)
		}
		l2.SetHooks(h)
	}
}

// txAuditAge is the outstanding-transaction age (cycles) at which the
// continuous TxTable lifecycle audit reports a "txlife" violation. A
// directory transaction normally completes within a message round trip
// (tens of cycles); injected delays and stalls stretch that by at most
// a few hundred. Anything outstanding this long is stuck, not slow.
const txAuditAge = 8192

// portFor builds the core-port decorator chain for one core slot:
// core → oracle checks (outermost, so they observe exactly what the
// core sees) → fault injection → L1. With faults and checks disabled
// the raw L1 is returned and the hot path is untouched.
func (m *Machine) portFor(core int) coherence.CorePort {
	var p coherence.CorePort = m.L1s[core]
	if m.inj != nil && m.inj.PortActive() {
		p = m.inj.WrapPort(core, p)
	}
	if m.checks != nil {
		p = m.checks.WrapPort(core, p)
	}
	return p
}

// CorePort returns the port chain a core in slot `core` is wired with:
// the raw L1 when faults and checks are disabled, decorated otherwise.
// Benchmark/test access — the zero-alloc gate drives the L1 hit path
// through this to prove disabled decorators cost nothing.
func (m *Machine) CorePort(core int) coherence.CorePort { return m.portFor(core) }

// finish registers every component in the deterministic intra-cycle
// order: network delivery, then L2 tiles, then L1s (timers + message
// handling), then frontends. Controllers are registered directly:
// coherence.Controller is a superset of sim.Ticker + sim.WakeHinter +
// sim.WakeSink (Register binds each component's Waker). This order is
// also what makes same-cycle wake-set dispatch exact: within a cycle,
// stimulation only flows forward (mesh deliveries into controllers,
// controller callbacks into frontends), so a woken component's turn is
// always still ahead.
func (m *Machine) finish() {
	if m.SE != nil {
		m.finishSharded()
		m.installObs()
		return
	}
	m.Engine.Register(m.Net)
	for _, t := range m.L2s {
		m.Engine.Register(t)
	}
	for _, l := range m.L1s {
		m.Engine.Register(l)
	}
	for _, c := range m.Fronts {
		m.Engine.Register(c)
	}
	m.Engine.RegisterDoner(&quiesceDoner{cores: m.Fronts, l1s: m.L1s, l2s: m.L2s, net: m.Net})
	m.installObs()
}

// finishSharded distributes the components across the sharded engine's
// shards, tagging each with its canonical index — the position it would
// have held in the serial registration order above (network 0, L2 tile
// t at 1+t, L1 t at 1+N+t, frontend i at 1+2N+i). Each shard receives
// its own mesh delivery domain (canonical 0: netShards never send, so
// the duplicate canonical position never reaches a merge key) followed
// by the controllers and frontends of its tiles, in ascending canonical
// order — making shard-local dispatch order agree with the serial
// engine's intra-cycle order.
func (m *Machine) finishSharded() {
	n := m.Cfg.Cores
	k := m.SE.Shards()
	for s := 0; s < k; s++ {
		m.SE.Register(s, 0, m.Net.ShardTicker(s))
	}
	for t, l2 := range m.L2s {
		m.SE.Register(m.shardOfTile[t], 1+t, l2)
	}
	for t, l1 := range m.L1s {
		m.SE.Register(m.shardOfTile[t], 1+n+t, l1)
	}
	for i, c := range m.Fronts {
		m.SE.Register(m.shardOfTile[m.frontCore[i]], 1+2*n+i, c)
	}
	for s := 0; s < k; s++ {
		d := &shardDoner{net: m.Net, shard: s}
		for t := 0; t < n; t++ {
			if m.shardOfTile[t] != s {
				continue
			}
			d.l1s = append(d.l1s, m.L1s[t])
			d.l2s = append(d.l2s, m.L2s[t])
		}
		for i, c := range m.Fronts {
			if m.shardOfTile[m.frontCore[i]] == s {
				d.fronts = append(d.fronts, c)
			}
		}
		m.SE.RegisterDoner(s, d)
	}
}

// shardDoner is quiesceDoner scoped to one shard: its frontends,
// controllers, and the shard's slice of undelivered mesh traffic
// (queued deliveries plus unmerged outbox entries, so a shard that just
// sent cross-shard work never reports done before the merge lands it).
type shardDoner struct {
	fronts []Frontend
	l1s    []coherence.L1Like
	l2s    []coherence.Directory
	net    *mesh.Network
	shard  int
}

func (q *shardDoner) Done() bool {
	for _, c := range q.fronts {
		if !c.Done() {
			return false
		}
	}
	if q.net.ShardPending(q.shard) > 0 {
		return false
	}
	for _, l := range q.l1s {
		if l.Busy() {
			return false
		}
	}
	for _, l := range q.l2s {
		if l.Busy() {
			return false
		}
	}
	return true
}

// ComponentLabel implements sim.Labeled (forensic reports).
func (q *shardDoner) ComponentLabel() string {
	return fmt.Sprintf("shard %d quiesce check", q.shard)
}

// NewMachine builds a machine for cfg running proto with the workload's
// programs loaded (w may have fewer programs than cores; extras idle).
// When cfg.TraceOut is set, every core streams its retired memory
// operations into the sink.
func NewMachine(cfg config.System, proto Protocol, w *program.Workload) (*Machine, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(w.Programs) > cfg.Cores {
		return nil, fmt.Errorf("system: workload %q needs %d cores, have %d",
			w.Name, len(w.Programs), cfg.Cores)
	}
	m, err := newBase(cfg, proto, w.InitMem)
	if err != nil {
		return nil, err
	}
	m.workload = w.Name
	for i := 0; i < cfg.Cores; i++ {
		var p *program.Program
		if i < len(w.Programs) {
			p = w.Programs[i]
		}
		if p == nil {
			continue
		}
		core := cpu.New(i, p, m.portFor(i), cfg.WriteBuffer)
		core.SetBatched(cfg.BatchedCore)
		core.SetReg(0, int64(i)) // convention: r0 = thread id
		if cfg.TraceOut != nil {
			core.SetTrace(cfg.TraceOut)
		}
		m.Cores = append(m.Cores, core)
		m.Fronts = append(m.Fronts, core)
		m.frontCore = append(m.frontCore, i)
	}
	m.finish()
	return m, nil
}

// NewReplayMachine builds a machine whose frontends replay tr's
// recorded per-core operation streams instead of executing programs.
// Any registered protocol can consume any trace; replaying on the
// recording protocol and geometry reproduces the original run's Result
// bit for bit (the TestTraceReplayBitIdentical gate). The trace's
// initial memory image seeds main memory so value-dependent operations
// (CAS) take their recorded outcomes.
func NewReplayMachine(cfg config.System, proto Protocol, tr *trace.Trace) (*Machine, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if len(tr.Streams) == 0 {
		return nil, fmt.Errorf("system: trace %q has no streams", tr.Meta.Workload)
	}
	if last := tr.Streams[len(tr.Streams)-1].Core; last >= cfg.Cores {
		return nil, fmt.Errorf("system: trace %q needs core %d, have %d",
			tr.Meta.Workload, last, cfg.Cores)
	}
	initMem := make(map[uint64]uint64, len(tr.InitMem))
	for _, w := range tr.InitMem {
		initMem[w.Addr] = w.Val
	}
	m, err := newBase(cfg, proto, initMem)
	if err != nil {
		return nil, err
	}
	m.workload = tr.Meta.Workload
	for _, s := range tr.Streams {
		m.Fronts = append(m.Fronts,
			trace.NewReplayCore(s.Core, s.Ops, m.portFor(s.Core), cfg.WriteBuffer))
		m.frontCore = append(m.frontCore, s.Core)
	}
	m.finish()
	return m, nil
}

// endpoint adapts a coherence.Controller to mesh.Endpoint.
type endpoint struct{ c coherence.Controller }

func (e endpoint) Deliver(now sim.Cycle, m *coherence.Msg) { e.c.Deliver(now, m) }

// engineNow, engineSnapshot and engineRun dispatch to whichever engine
// flavor the machine was built with.
func (m *Machine) engineNow() sim.Cycle {
	if m.SE != nil {
		return m.SE.Now()
	}
	return m.Engine.Now()
}

func (m *Machine) engineSnapshot() []sim.PendingComponent {
	if m.SE != nil {
		return m.SE.Snapshot()
	}
	return m.Engine.Snapshot()
}

func (m *Machine) engineRun() (sim.Cycle, error) {
	if m.SE != nil {
		return m.SE.Run()
	}
	return m.Engine.Run()
}

// forensics assembles the structured dump for a failed run: the engine
// component snapshot plus mesh/pool state and any oracle findings.
func (m *Machine) forensics(reason string, panicValue any, stack []byte) *check.Report {
	gets, live := m.Net.PoolTotals()
	var txd []string
	for _, l2 := range m.L2s {
		txd = append(txd, l2.ComponentLabel()+":"+l2.Txs().Debug())
	}
	return &check.Report{
		Reason:      reason,
		Cycle:       m.engineNow(),
		Components:  m.engineSnapshot(),
		MeshPending: m.Net.Pending(),
		PoolGets:    gets,
		PoolLive:    live,
		PanicValue:  panicValue,
		Stack:       string(stack),
		Oracle:      m.oracleErr(),
		TxTables:    txd,
	}
}

// txLive sums live (registered, never retired) directory transactions
// across all tiles; zero after any clean run.
func (m *Machine) txLive() int64 {
	var n int64
	for _, l2 := range m.L2s {
		n += l2.Txs().LiveTx()
	}
	return n
}

func (m *Machine) oracleErr() error {
	if m.checks == nil {
		return nil
	}
	return m.checks.Err()
}

// runEngine is the harness boundary around Engine.Run: component panics
// (L1/mesh internals) are recovered into the forensic-report format,
// deadlock/cycle-limit errors are annotated with the same dump, and
// oracle violations from an otherwise clean run surface as the error.
func (m *Machine) runEngine() (cycles sim.Cycle, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep := m.forensics("panic", r, debug.Stack())
			err = fmt.Errorf("component panic: %v\n%s", r, rep)
		}
	}()
	cycles, err = m.engineRun()
	if err != nil {
		reason := "cycle limit"
		var dl *sim.DeadlockError
		if errors.As(err, &dl) && dl.Stalled {
			reason = "deadlock"
		}
		return cycles, fmt.Errorf("%w\n%s", err, m.forensics(reason, nil, nil))
	}
	if oerr := m.oracleErr(); oerr != nil {
		return cycles, oerr
	}
	if m.checks != nil {
		// Leak oracles: a clean, quiesced run must have returned every
		// pooled message and retired every directory transaction.
		if _, live := m.Net.PoolTotals(); live != 0 {
			return cycles, fmt.Errorf("check: %d pooled message(s) leaked after clean run\n%s",
				live, m.forensics("leak", nil, nil))
		}
		if tl := m.txLive(); tl != 0 {
			return cycles, fmt.Errorf("check: %d directory transaction(s) leaked after clean run\n%s",
				tl, m.forensics("leak", nil, nil))
		}
	}
	return cycles, nil
}

// Execute runs the wired machine's engine through the same harness
// boundary Run uses (forensics on failure, oracle and leak checks on
// completion) and returns the cycle count. It exists for harnesses —
// the violation shrinker — that build a Machine themselves and then
// need to inspect its oracle tracker or fault injector afterwards.
func (m *Machine) Execute() (sim.Cycle, error) { return m.runEngine() }

// Collect assembles the Result for a finished run (Execute callers).
func (m *Machine) Collect(cycles sim.Cycle) *Result { return m.collect(cycles) }

// Injector exposes the fault injector (nil when cfg.FaultProfile is
// empty), so harnesses can read its decision-counter high-water mark.
func (m *Machine) Injector() *faults.Injector { return m.inj }

// Run executes a workload on proto under cfg and returns the collected
// result. The workload's Check (if any) is evaluated on final memory;
// its outcome lands in Result.CheckErr, not the returned error, so
// harnesses can distinguish simulator failures from functional failures.
func Run(cfg config.System, proto Protocol, w *program.Workload) (*Result, error) {
	m, err := NewMachine(cfg, proto, w)
	if err != nil {
		return nil, err
	}
	cycles, err := m.runEngine()
	if err != nil {
		return nil, fmt.Errorf("system: %s on %s: %w", proto.Name(), w.Name, err)
	}
	r := m.collect(cycles)
	if w.Check != nil {
		r.CheckErr = w.Check(m.Reader())
	}
	return r, nil
}

// RunRecorded is Run with memory-trace capture: it wires a trace
// recorder into every core, executes the workload, and returns both the
// (unperturbed) result and the captured trace. The trace embeds cfg's
// geometry, the protocol name and the workload's initial memory image,
// so it is self-contained for later replay.
func RunRecorded(cfg config.System, proto Protocol, w *program.Workload, seed uint64) (*Result, *trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rec := trace.NewRecorder(cfg, proto.Name(), w.Name, seed)
	cfg.TraceOut = rec
	res, err := Run(cfg, proto, w)
	if err != nil {
		return nil, nil, err
	}
	rec.SetInitMem(w.InitMem)
	tr, err := rec.Trace()
	if err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// Replay executes a trace on proto under cfg and returns the collected
// result (Workload carries the recorded name; there is no functional
// check to evaluate).
func Replay(cfg config.System, proto Protocol, tr *trace.Trace) (*Result, error) {
	m, err := NewReplayMachine(cfg, proto, tr)
	if err != nil {
		return nil, err
	}
	cycles, err := m.runEngine()
	if err != nil {
		return nil, fmt.Errorf("system: %s replaying %s: %w", proto.Name(), tr.Meta.Workload, err)
	}
	return m.collect(cycles), nil
}

func (m *Machine) collect(cycles sim.Cycle) *Result {
	msgs, flits, hops, ctrl, data := m.Net.Totals()
	gets, live := m.Net.PoolTotals()
	r := &Result{
		Protocol:  m.proto.Name(),
		Workload:  m.workload,
		Cycles:    cycles,
		Msgs:      msgs,
		Flits:     flits,
		FlitHops:  hops,
		CtrlFlits: ctrl,
		DataFlits: data,
		PoolGets:  gets,
		PoolLive:  live,
		TxLive:    m.txLive(),
		Mem:       m.Mem,
	}
	for _, l := range m.L1s {
		r.L1.Merge(l.L1Stats())
	}
	// Core-level and tile-level counts come from the components' named
	// counter lists, keyed by the event part of each name
	// ("core3.loads", "tsocc.l2.5.decay_events").
	byEvent := map[string]*int64{
		"loads": &r.Loads, "stores": &r.Stores, "rmws": &r.RMWs,
		"fences": &r.Fences, "instructions": &r.Instructions,
		"sro_transitions": &r.SROTransitions, "decay_events": &r.DecayEvents,
		"sro_inv_bcasts": &r.SROInvBcasts, "timestamp_resets": &r.L2TSResets,
	}
	for _, l2 := range m.L2s {
		sumByEvent(l2.Counters(), byEvent)
	}
	for _, c := range m.Fronts {
		sumByEvent(c.Counters(), byEvent)
	}
	return r
}

// Reader returns a MemReader observing the freshest value of every word:
// exclusive L1 copies first, then the home L2 tile, then memory.
func (m *Machine) Reader() program.MemReader {
	return hierReader{m}
}

// sumByEvent adds each counter's value to the total its event name (the
// part after the last '.') selects; other counters are skipped.
func sumByEvent(cs []*stats.Counter, totals map[string]*int64) {
	for _, c := range cs {
		name := c.Name()
		if p, ok := totals[name[strings.LastIndexByte(name, '.')+1:]]; ok {
			*p += c.Value()
		}
	}
}

type hierReader struct{ m *Machine }

func (r hierReader) ReadWord(addr uint64) uint64 {
	// Resolve the home tile once; on a quiesced machine its directory
	// state is exact (exclusive L2 lines are inclusive of their L1 copy),
	// so only the recorded owner can hold the block dirty.
	tile := int(addr>>coherence.BlockShift) % r.m.Cfg.Cores
	home := r.m.L2s[tile]
	if owner, held := home.SnoopOwner(addr); held {
		if blk, ok := r.m.L1s[int(owner)].SnoopBlock(addr); ok {
			return memsys.GetWord(blk, addr)
		}
	}
	if blk, ok := home.SnoopBlock(addr); ok {
		return memsys.GetWord(blk, addr)
	}
	return r.m.Mem.ReadWord(addr)
}

// Summary renders a one-run overview for the CLI tools.
func (r *Result) Summary() string {
	t := stats.NewTable(fmt.Sprintf("%s / %s", r.Workload, r.Protocol), "value")
	t.AddRow("cycles", fmt.Sprintf("%d", r.Cycles))
	t.AddRow("instructions", fmt.Sprintf("%d", r.Instructions))
	t.AddRow("loads", fmt.Sprintf("%d", r.Loads))
	t.AddRow("stores", fmt.Sprintf("%d", r.Stores))
	t.AddRow("rmws", fmt.Sprintf("%d", r.RMWs))
	t.AddRow("L1 accesses", fmt.Sprintf("%d", r.L1.Accesses()))
	t.AddRow("L1 misses", fmt.Sprintf("%d", r.L1.Misses()))
	t.AddRow("self-invalidations", fmt.Sprintf("%d", r.L1.SelfInvTotal()))
	t.AddRow("network msgs", fmt.Sprintf("%d", r.Msgs))
	t.AddRow("network flits", fmt.Sprintf("%d", r.Flits))
	t.AddRow("flit-hops", fmt.Sprintf("%d", r.FlitHops))
	t.AddRow("mean RMW latency", fmt.Sprintf("%.1f", r.L1.MeanRMWLatency()))
	return t.String()
}
