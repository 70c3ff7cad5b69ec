// Package cpu models the processor cores. Each Core executes a
// program.Program over a TSO memory system: committed stores enter a
// FIFO write buffer and drain one at a time (each waits for its
// predecessor's coherence state change to complete, giving w→w order),
// loads bypass the write buffer with store→load forwarding (the TSO w→r
// relaxation), and atomics/fences drain the buffer first (x86 locked
// semantics). This is exactly the memory-event interface the paper's
// gem5 cores present to the Ruby coherence protocol.
package cpu

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/stats"
)

type wbEntry struct {
	addr uint64
	val  uint64
}

// Core is one simulated processor.
type Core struct {
	ID   int
	prog *program.Program
	port coherence.CorePort

	regs [program.NumRegs]int64
	pc   int

	// The write buffer is a fixed-capacity FIFO ring: entries enter at
	// (head+len)%cap and drain from head, so steady-state store traffic
	// allocates nothing.
	wb         []wbEntry
	wbHead     int
	wbLen      int
	wbInFlight bool
	wbStalled  bool // last drain attempt was rejected by the L1

	waiting    bool // blocked on an outstanding load/RMW/fence callback
	stallUntil sim.Cycle
	halted     bool

	// waker marks the core due when one of its completion callbacks
	// fires (inside the L1's tick, earlier in the same cycle): that is
	// the only way a blocked core is re-enabled, and under wake-set
	// scheduling the engine ticks only components that were marked due.
	waker sim.Waker

	// batched enables straight-line run execution: a whole block of
	// register/branch instructions retires in one Tick and the core
	// stalls over the cycles the block would have occupied, so the
	// idle-skip engine leaps them instead of re-entering the core.
	batched bool

	// Memory-trace capture (config.System.TraceOut). While enabled, the
	// core accumulates the compute delta since the last recorded event:
	// traceGap in cycles (the Gap contract documented on
	// config.TraceEvent), traceIns in retired instructions. Every hook
	// is guarded by a trace-nil check, so disabled capture costs one
	// predictable branch per retirement and zero allocations.
	trace    config.TraceSink
	traceGap int64
	traceIns int64

	// Completion callbacks handed to the L1. The core has at most one
	// outstanding operation of each kind, so a single preallocated
	// closure per kind (with the variable bits stored in fields) keeps
	// the issue path allocation-free.
	loadCb  func(val uint64)
	rmwCb   func(old uint64)
	storeCb func()
	fenceCb func()
	opDst   uint8 // destination register of the in-flight load/RMW

	// Preallocated RMW modify functions; the operands of the in-flight
	// atomic live in rmwA/rmwB.
	fAdd, fXchg, fCas func(old uint64) (uint64, bool)
	rmwA, rmwB        uint64

	// Stats.
	Loads        stats.Counter
	Stores       stats.Counter
	RMWs         stats.Counter
	Fences       stats.Counter
	Instructions stats.Counter
	WBForwards   stats.Counter
	WBFullStalls stats.Counter
	// FinishCycle is the first ticked cycle at which the core observed
	// itself fully done (diagnostic only; under idle-skip scheduling a
	// quiescent core may never tick again, leaving it zero).
	FinishCycle sim.Cycle

	rmwIssue sim.Cycle

	// Stall attribution (internal/obs), nil when disabled. Episodes are
	// interval-based because the wake-set engine skips a stalled core's
	// idle cycles entirely: an episode opens at the tick that detects
	// the stall and closes at the next tick that makes progress, so the
	// observed length covers skipped cycles too. Batched-run interior
	// cycles are attributed immediately (the engine leaps them).
	stalls     *obs.CoreStalls
	stallWhy   obs.StallReason
	stallStart sim.Cycle
}

// New builds a core executing prog against port, with a write buffer of
// wbEntries slots.
func New(id int, prog *program.Program, port coherence.CorePort, wbEntries int) *Core {
	if wbEntries <= 0 {
		panic("cpu: write buffer must have at least one entry")
	}
	c := &Core{ID: id, prog: prog, port: port, wb: make([]wbEntry, wbEntries)}
	c.Loads.SetName(fmt.Sprintf("core%d.loads", id))
	c.Stores.SetName(fmt.Sprintf("core%d.stores", id))
	c.RMWs.SetName(fmt.Sprintf("core%d.rmws", id))
	c.Fences.SetName(fmt.Sprintf("core%d.fences", id))
	c.Instructions.SetName(fmt.Sprintf("core%d.instructions", id))
	c.WBForwards.SetName(fmt.Sprintf("core%d.wb_forwards", id))
	c.WBFullStalls.SetName(fmt.Sprintf("core%d.wb_full_stalls", id))
	c.loadCb = func(val uint64) {
		c.regs[c.opDst] = int64(val)
		c.waiting = false
		c.waker.Wake()
	}
	c.rmwCb = func(old uint64) {
		c.regs[c.opDst] = int64(old)
		c.waiting = false
		c.waker.Wake()
	}
	c.storeCb = func() {
		c.wbHead = (c.wbHead + 1) % len(c.wb)
		c.wbLen--
		c.wbInFlight = false
		c.waker.Wake()
	}
	c.fenceCb = func() {
		c.waiting = false
		c.waker.Wake()
	}
	c.fAdd = func(old uint64) (uint64, bool) { return old + c.rmwA, true }
	c.fXchg = func(old uint64) (uint64, bool) { return c.rmwA, true }
	c.fCas = func(old uint64) (uint64, bool) {
		if old == c.rmwA {
			return c.rmwB, true
		}
		return 0, false
	}
	return c
}

// BindWaker implements sim.WakeSink (see the waker field).
func (c *Core) BindWaker(w sim.Waker) { c.waker = w }

// SetStalls attaches the stall-attribution histograms (see the stalls
// field). Nil (the default) keeps every stall path branch-only.
func (c *Core) SetStalls(s *obs.CoreStalls) {
	c.stalls = s
	c.stallWhy = obs.StallNone
}

// stallOpen begins a stall episode at now unless one is already open
// (a continuing stall keeps its original start and reason).
func (c *Core) stallOpen(now sim.Cycle, why obs.StallReason) {
	if c.stalls == nil || c.stallWhy != obs.StallNone {
		return
	}
	c.stallWhy = why
	c.stallStart = now
}

// stallClose observes and ends the open stall episode, if any.
func (c *Core) stallClose(now sim.Cycle) {
	if c.stalls == nil || c.stallWhy == obs.StallNone {
		return
	}
	c.stalls.Observe(c.stallWhy, int64(now-c.stallStart))
	c.stallWhy = obs.StallNone
}

// SetBatched toggles batched straight-line execution
// (config.System.BatchedCore). Both settings produce bit-identical
// simulations: batches contain only register/branch instructions, whose
// intermediate state nothing outside the core can observe, and the
// batch accounts for exactly the cycles per-cycle execution would have
// spent.
func (c *Core) SetBatched(on bool) { c.batched = on }

// SetTrace attaches a capture sink (config.System.TraceOut). Must be
// called before the first Tick: the gap accumulator starts at 1 because
// the first instruction dispatches on cycle 1, one cycle after the
// stream's cycle-0 anchor.
func (c *Core) SetTrace(sink config.TraceSink) {
	c.trace = sink
	c.traceGap = 1
	c.traceIns = 0
}

// Done reports whether the core has halted and fully drained its writes.
func (c *Core) Done() bool {
	return c.halted && c.wbLen == 0 && !c.wbInFlight && !c.waiting
}

// Counters implements system.Frontend: the one named counter list that
// both Result and the metrics registry read.
func (c *Core) Counters() []*stats.Counter {
	return []*stats.Counter{&c.Loads, &c.Stores, &c.RMWs, &c.Fences,
		&c.Instructions, &c.WBForwards, &c.WBFullStalls}
}

// Reg returns the architectural value of register r (for tests/litmus).
func (c *Core) Reg(r uint8) int64 { return c.regs[r] }

// SetReg seeds a register before execution (thread id, base pointers).
func (c *Core) SetReg(r uint8, v int64) { c.regs[r] = v }

// Tick advances the core one cycle.
func (c *Core) Tick(now sim.Cycle) {
	c.drainWriteBuffer(now)

	if c.halted {
		if c.Done() && c.FinishCycle == 0 {
			c.FinishCycle = now
		}
		return
	}
	if c.waiting || now < c.stallUntil {
		return
	}
	if c.stalls != nil {
		c.stallClose(now)
	}
	if c.prog == nil || c.pc >= len(c.prog.Instrs) {
		c.halted = true
		return
	}
	if c.batched {
		if n := c.prog.RunLen(c.pc); n > 1 {
			c.executeRun(now, n)
			return
		}
	}
	in := c.prog.Instrs[c.pc]
	c.execute(now, in)
}

// executeRun retires a straight-line run of n register/branch
// instructions in a single Tick, then stalls until now+n — exactly the
// cycle at which per-cycle execution would reach the next instruction.
// Runs contain no memory, fence, atomic, pause or halt ops (enforced by
// the program run-length analysis), so no other component can observe
// the difference; NextWake's stallUntil path reports the end of the run
// to the engine, which leaps the intervening idle cycles.
//
// The loop is a specialized copy of the register/branch arms of
// execute: no per-instruction call, no advance bookkeeping, one counter
// update for the whole run. Its semantics are pinned to execute's by
// the engine-mode conformance gates (batched × per-cycle × protocols)
// and the dense-compute checksum workload.
func (c *Core) executeRun(now sim.Cycle, n int) {
	pc := c.pc
	ins := c.prog.Instrs
	regs := &c.regs
	for k := 0; k < n; k++ {
		in := &ins[pc]
		pc++
		switch in.Op {
		case program.OpLI:
			regs[in.Dst] = in.Imm
		case program.OpMov:
			regs[in.Dst] = regs[in.A]
		case program.OpAdd:
			regs[in.Dst] = regs[in.A] + regs[in.B]
		case program.OpAddi:
			regs[in.Dst] = regs[in.A] + in.Imm
		case program.OpSub:
			regs[in.Dst] = regs[in.A] - regs[in.B]
		case program.OpMul:
			regs[in.Dst] = regs[in.A] * regs[in.B]
		case program.OpAnd:
			regs[in.Dst] = regs[in.A] & regs[in.B]
		case program.OpOr:
			regs[in.Dst] = regs[in.A] | regs[in.B]
		case program.OpXor:
			regs[in.Dst] = regs[in.A] ^ regs[in.B]
		case program.OpMod:
			m := regs[in.A] % in.Imm
			if m < 0 {
				m += in.Imm
			}
			regs[in.Dst] = m
		case program.OpShl:
			regs[in.Dst] = regs[in.A] << uint(in.Imm)
		case program.OpBeq:
			if regs[in.A] == regs[in.B] {
				pc = in.Target
			}
		case program.OpBne:
			if regs[in.A] != regs[in.B] {
				pc = in.Target
			}
		case program.OpBlt:
			if regs[in.A] < regs[in.B] {
				pc = in.Target
			}
		case program.OpBge:
			if regs[in.A] >= regs[in.B] {
				pc = in.Target
			}
		case program.OpJmp:
			pc = in.Target
		default:
			panic(fmt.Sprintf("cpu: core %d: op %v inside a batched run", c.ID, in.Op))
		}
	}
	c.pc = pc
	c.stallUntil = now + sim.Cycle(n)
	c.Instructions.Add(int64(n))
	if c.stalls != nil && n > 1 {
		// The run's interior cycles never tick; attribute them now.
		c.stalls.Observe(obs.StallBatchInterior, int64(n-1))
	}
	if c.trace != nil {
		// A run of n register/branch instructions occupies exactly n
		// cycles — identical to the unbatched accounting of n single
		// retirements, so batched and unbatched runs record the same
		// trace.
		c.traceGap += int64(n)
		c.traceIns += int64(n)
	}
}

func (c *Core) drainWriteBuffer(now sim.Cycle) {
	if c.wbInFlight || c.wbLen == 0 {
		return
	}
	head := c.wb[c.wbHead]
	if c.port.Store(now, head.addr, head.val, c.storeCb) {
		c.wbInFlight = true
		c.wbStalled = false
	} else {
		// The L1 declined. Every decline reason is a transaction this
		// same core has in flight (a same-block load/RMW, or its own
		// write), and every such transaction completes by firing one of
		// this core's callbacks — which call waker.Wake — so the retry
		// is re-dispatched on exactly the cycle the L1 frees up. This
		// invariant is load-bearing under wake-set scheduling: a stalled
		// head with the core otherwise quiescent reports WakeNever, so
		// an L1 decline reason with no pending same-core callback would
		// be a lost-wakeup deadlock. Do not add one.
		c.wbStalled = true
	}
}

// NextWake implements sim.WakeHinter. The core must be ticked while it
// has self-driven work: an instruction to execute, a stall expiring, or
// a write-buffer head to (re)issue. While blocked on an L1 callback it
// is externally driven — the callback itself wakes the core through its
// Waker on the cycle it fires (inside the L1's tick, earlier in that
// same cycle, so the core's turn is still ahead).
func (c *Core) NextWake(now sim.Cycle) sim.Cycle {
	if c.wbLen > 0 && !c.wbInFlight && !c.wbStalled {
		return now + 1 // a freshly buffered store to issue
	}
	if c.halted || c.waiting {
		return sim.WakeNever
	}
	if now+1 < c.stallUntil {
		return c.stallUntil
	}
	return now + 1
}

// execute runs one instruction. Instructions counts retirements
// exactly: memory/fence ops count once at issue (inside their do*
// helper) or, for synchronous completions (a forwarded load, a
// buffered store), via retired here; rejected attempts (port busy,
// write buffer full, pending drain) retire nothing and are retried.
func (c *Core) execute(now sim.Cycle, in program.Instr) {
	advance := true
	retired := true
	switch in.Op {
	case program.OpLI:
		c.regs[in.Dst] = in.Imm
	case program.OpMov:
		c.regs[in.Dst] = c.regs[in.A]
	case program.OpAdd:
		c.regs[in.Dst] = c.regs[in.A] + c.regs[in.B]
	case program.OpAddi:
		c.regs[in.Dst] = c.regs[in.A] + in.Imm
	case program.OpSub:
		c.regs[in.Dst] = c.regs[in.A] - c.regs[in.B]
	case program.OpMul:
		c.regs[in.Dst] = c.regs[in.A] * c.regs[in.B]
	case program.OpAnd:
		c.regs[in.Dst] = c.regs[in.A] & c.regs[in.B]
	case program.OpOr:
		c.regs[in.Dst] = c.regs[in.A] | c.regs[in.B]
	case program.OpXor:
		c.regs[in.Dst] = c.regs[in.A] ^ c.regs[in.B]
	case program.OpMod:
		m := c.regs[in.A] % in.Imm
		if m < 0 {
			m += in.Imm
		}
		c.regs[in.Dst] = m
	case program.OpShl:
		c.regs[in.Dst] = c.regs[in.A] << uint(in.Imm)

	case program.OpLd:
		advance = c.doLoad(now, in)
		retired = advance // issued loads count at issue, retries not at all
	case program.OpSt:
		advance = c.doStore(now, in)
		retired = advance
	case program.OpRmwAdd, program.OpRmwXchg, program.OpCas:
		advance = c.doAtomic(now, in)
		retired = advance
	case program.OpFence:
		advance = c.doFence(now)
		retired = advance

	case program.OpBeq:
		if c.regs[in.A] == c.regs[in.B] {
			c.pc = in.Target
			advance = false
		}
	case program.OpBne:
		if c.regs[in.A] != c.regs[in.B] {
			c.pc = in.Target
			advance = false
		}
	case program.OpBlt:
		if c.regs[in.A] < c.regs[in.B] {
			c.pc = in.Target
			advance = false
		}
	case program.OpBge:
		if c.regs[in.A] >= c.regs[in.B] {
			c.pc = in.Target
			advance = false
		}
	case program.OpJmp:
		c.pc = in.Target
		advance = false
	case program.OpNop:
		c.stallUntil = now + sim.Cycle(in.Imm)
	case program.OpHalt:
		c.halted = true
		advance = false
	default:
		panic(fmt.Sprintf("cpu: core %d: bad opcode %v", c.ID, in.Op))
	}
	if advance {
		c.pc++
	}
	if retired {
		c.Instructions.Inc()
		if c.trace != nil {
			c.traceRetire(in)
		}
	}
}

// traceRetire accumulates the capture deltas for one retired
// instruction. Memory and fence operations record their own events (and
// reset the accumulators) inside their do* helpers at the moment the
// operation is accepted, so they contribute nothing here; note that an
// issued load/RMW/fence reaches this path with retired=false and is
// likewise skipped.
func (c *Core) traceRetire(in program.Instr) {
	switch {
	case in.Op.IsMem() || in.Op == program.OpFence:
		// Recorded at acceptance inside doLoad/doStore/doAtomic/doFence.
	case in.Op == program.OpNop:
		// A pause dispatches at T and releases the core at T+max(Imm,1).
		g := in.Imm
		if g < 1 {
			g = 1
		}
		c.traceGap += g
		c.traceIns++
	case in.Op == program.OpHalt:
		// Close the stream: the trailing compute distance lets replay
		// halt — and therefore quiesce — on the original cycle.
		c.trace.RecordOp(config.TraceEvent{Core: c.ID, Op: config.TraceHalt,
			Gap: c.traceGap, Instrs: c.traceIns + 1})
	default: // register op or branch: one cycle, one retirement
		c.traceGap++
		c.traceIns++
	}
}

func (c *Core) effAddr(in program.Instr) uint64 {
	a := uint64(c.regs[in.A] + in.Imm)
	if a%8 != 0 {
		panic(fmt.Sprintf("cpu: core %d pc %d: unaligned address %#x", c.ID, c.pc, a))
	}
	return a
}

func (c *Core) doLoad(now sim.Cycle, in program.Instr) bool {
	addr := c.effAddr(in)
	// Store→load forwarding: newest matching write-buffer entry wins.
	// TSO requires reads of pending writes to see them.
	for i := c.wbLen - 1; i >= 0; i-- {
		e := &c.wb[(c.wbHead+i)%len(c.wb)]
		if e.addr == addr {
			c.regs[in.Dst] = int64(e.val)
			c.Loads.Inc()
			c.WBForwards.Inc()
			if c.trace != nil {
				// Forwarded loads complete synchronously: like a store,
				// the instruction itself occupies one cycle before the
				// next dispatch, hence the gap re-seed of 1. Replay makes
				// the same forwarding decision against its identical
				// write buffer, so the trace needs no forwarded marker.
				c.trace.RecordOp(config.TraceEvent{Core: c.ID, Op: config.TraceLoad,
					Addr: addr, Gap: c.traceGap, Instrs: c.traceIns + 1})
				c.traceGap, c.traceIns = 1, 0
			}
			return true
		}
	}
	c.opDst = in.Dst
	if !c.port.Load(now, addr, c.loadCb) {
		c.stallOpen(now, obs.StallPortBusy)
		return false // port busy; retry next cycle without advancing pc
	}
	c.stallOpen(now, obs.StallMissOutstanding)
	c.Loads.Inc()
	if c.trace != nil {
		// Asynchronous completion: the next instruction dispatches on
		// the callback cycle itself, so the gap re-seeds to 0.
		c.trace.RecordOp(config.TraceEvent{Core: c.ID, Op: config.TraceLoad,
			Addr: addr, Gap: c.traceGap, Instrs: c.traceIns + 1})
		c.traceGap, c.traceIns = 0, 0
	}
	c.waiting = true
	c.pc++ // manually advance: completion is asynchronous
	c.Instructions.Inc()
	return false
}

func (c *Core) doStore(now sim.Cycle, in program.Instr) bool {
	if c.wbLen >= len(c.wb) {
		c.WBFullStalls.Inc()
		c.stallOpen(now, obs.StallWBFull)
		return false // write buffer full; retry
	}
	e := wbEntry{addr: c.effAddr(in), val: uint64(c.regs[in.B])}
	c.wb[(c.wbHead+c.wbLen)%len(c.wb)] = e
	c.wbLen++
	c.Stores.Inc()
	if c.trace != nil {
		c.trace.RecordOp(config.TraceEvent{Core: c.ID, Op: config.TraceStore,
			Addr: e.addr, Val: e.val, Gap: c.traceGap, Instrs: c.traceIns + 1})
		c.traceGap, c.traceIns = 1, 0
	}
	return true
}

func (c *Core) doAtomic(now sim.Cycle, in program.Instr) bool {
	// x86 locked operations drain the write buffer first (full barrier).
	if c.wbLen > 0 || c.wbInFlight {
		c.stallOpen(now, obs.StallFenceDrain)
		return false
	}
	addr := c.effAddr(in)
	var f func(old uint64) (uint64, bool)
	switch in.Op {
	case program.OpRmwAdd:
		c.rmwA = uint64(c.regs[in.B])
		f = c.fAdd
	case program.OpRmwXchg:
		c.rmwA = uint64(c.regs[in.B])
		f = c.fXchg
	case program.OpCas:
		c.rmwA = uint64(c.regs[in.B])
		c.rmwB = uint64(c.regs[in.C])
		f = c.fCas
	}
	c.opDst = in.Dst
	if !c.port.RMW(now, addr, f, c.rmwCb) {
		c.stallOpen(now, obs.StallPortBusy)
		return false
	}
	c.stallOpen(now, obs.StallMissOutstanding)
	c.RMWs.Inc()
	if c.trace != nil {
		var op config.TraceOp
		var val2 uint64
		switch in.Op {
		case program.OpRmwAdd:
			op = config.TraceRMWAdd
		case program.OpRmwXchg:
			op = config.TraceRMWXchg
		default:
			op = config.TraceCAS
			val2 = c.rmwB
		}
		c.trace.RecordOp(config.TraceEvent{Core: c.ID, Op: op, Addr: addr,
			Val: c.rmwA, Val2: val2, Gap: c.traceGap, Instrs: c.traceIns + 1})
		c.traceGap, c.traceIns = 0, 0
	}
	c.waiting = true
	c.pc++
	c.Instructions.Inc()
	return false
}

func (c *Core) doFence(now sim.Cycle) bool {
	if c.wbLen > 0 || c.wbInFlight {
		c.stallOpen(now, obs.StallFenceDrain)
		return false
	}
	if !c.port.Fence(now, c.fenceCb) {
		c.stallOpen(now, obs.StallPortBusy)
		return false
	}
	c.stallOpen(now, obs.StallFenceDrain)
	c.Fences.Inc()
	if c.trace != nil {
		c.trace.RecordOp(config.TraceEvent{Core: c.ID, Op: config.TraceFence,
			Gap: c.traceGap, Instrs: c.traceIns + 1})
		c.traceGap, c.traceIns = 0, 0
	}
	c.waiting = true
	c.pc++
	c.Instructions.Inc()
	return false
}

// ComponentLabel implements sim.Labeled (forensic reports).
func (c *Core) ComponentLabel() string { return fmt.Sprintf("core %d", c.ID) }

// Debug renders the core's execution state (deadlock diagnostics).
func (c *Core) Debug() string {
	instr := "?"
	if c.prog != nil && c.pc-1 >= 0 && c.pc-1 < len(c.prog.Instrs) {
		instr = c.prog.Instrs[c.pc-1].String()
	}
	return fmt.Sprintf("core %d: pc=%d (prev: %s) halted=%v waiting=%v wb=%d inflight=%v stallUntil=%d",
		c.ID, c.pc, instr, c.halted, c.waiting, c.wbLen, c.wbInFlight, c.stallUntil)
}
