package trace

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ReplayCore drives a recorded (or synthesized) per-core operation
// stream through a coherence.CorePort. It implements the same
// sim.Ticker + sim.WakeHinter scheduling contract as cpu.Core and
// models the identical TSO front end — FIFO write buffer with
// store→load forwarding, drain-before-atomic/fence, port-busy retries —
// so that replaying a trace on the machine it was recorded under
// reproduces every port call on its original cycle:
//
//   - After a synchronous completion (a store entering the write
//     buffer, a forwarded load) the next op becomes ready Gap cycles
//     later; Gap includes the completing op's own cycle.
//   - After an asynchronous completion (load/RMW/fence callback) the
//     next op becomes ready Gap cycles after the callback fires; a Gap
//     of 0 issues on the callback cycle itself, exactly as cpu.Core
//     dispatches the next instruction the cycle a callback lands.
//   - A ready op is attempted every ticked cycle until the port (or the
//     write-buffer precondition) accepts it, mirroring cpu.Core's retry
//     behaviour; the gap clock does not advance during retries.
//
// Between ready times the core reports NextWake = readyAt, so the
// idle-skip engine leaps the recorded compute gaps just as it leaps a
// batched core's straight-line runs.
type ReplayCore struct {
	ID   int
	ops  []Op
	idx  int
	port coherence.CorePort

	wb         []wbEntry
	wbHead     int
	wbLen      int
	wbInFlight bool
	wbStalled  bool

	waiting bool
	halted  bool

	// readyAt is the earliest cycle ops[idx] may issue. gapArmed defers
	// the anchor for async completions: the callback cycle is not known
	// until the core ticks on it, at which point readyAt = now + Gap.
	readyAt  sim.Cycle
	gapArmed bool

	// waker marks the core due when a completion callback fires (the
	// wake-set contract, mirroring cpu.Core).
	waker sim.Waker

	loadCb  func(val uint64)
	rmwCb   func(old uint64)
	storeCb func()
	fenceCb func()

	fAdd, fXchg, fCas func(old uint64) (uint64, bool)
	rmwA, rmwB        uint64

	Loads        stats.Counter
	Stores       stats.Counter
	RMWs         stats.Counter
	Fences       stats.Counter
	Instructions stats.Counter
	WBForwards   stats.Counter
	FinishCycle  sim.Cycle

	// Stall attribution (internal/obs), nil when disabled; the same
	// interval-episode scheme as cpu.Core (recorded compute gaps are not
	// stalls and are never attributed).
	stalls     *obs.CoreStalls
	stallWhy   obs.StallReason
	stallStart sim.Cycle
}

type wbEntry struct {
	addr uint64
	val  uint64
}

// NewReplayCore builds a replay frontend for one stream against port,
// with a write buffer of wbEntries slots (use the recording geometry's
// WriteBuffer for bit-identical replay).
func NewReplayCore(id int, ops []Op, port coherence.CorePort, wbEntries int) *ReplayCore {
	if wbEntries <= 0 {
		panic("trace: replay write buffer must have at least one entry")
	}
	c := &ReplayCore{ID: id, ops: ops, port: port, wb: make([]wbEntry, wbEntries)}
	c.Loads.SetName(fmt.Sprintf("replay%d.loads", id))
	c.Stores.SetName(fmt.Sprintf("replay%d.stores", id))
	c.RMWs.SetName(fmt.Sprintf("replay%d.rmws", id))
	c.Fences.SetName(fmt.Sprintf("replay%d.fences", id))
	c.Instructions.SetName(fmt.Sprintf("replay%d.instructions", id))
	c.WBForwards.SetName(fmt.Sprintf("replay%d.wb_forwards", id))
	if len(ops) > 0 {
		// The stream's anchor is cycle 0; the first op's Gap is its
		// absolute first-attempt cycle.
		c.readyAt = sim.Cycle(ops[0].Gap)
	} else {
		c.halted = true
	}
	c.loadCb = func(uint64) {
		c.waiting = false
		c.waker.Wake()
	}
	c.rmwCb = func(uint64) {
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
func (c *ReplayCore) BindWaker(w sim.Waker) { c.waker = w }

// SetStalls attaches the stall-attribution histograms (see the stalls
// field).
func (c *ReplayCore) SetStalls(s *obs.CoreStalls) {
	c.stalls = s
	c.stallWhy = obs.StallNone
}

func (c *ReplayCore) stallOpen(now sim.Cycle, why obs.StallReason) {
	if c.stalls == nil || c.stallWhy != obs.StallNone {
		return
	}
	c.stallWhy = why
	c.stallStart = now
}

func (c *ReplayCore) stallClose(now sim.Cycle) {
	if c.stalls == nil || c.stallWhy == obs.StallNone {
		return
	}
	c.stalls.Observe(c.stallWhy, int64(now-c.stallStart))
	c.stallWhy = obs.StallNone
}

// Done reports whether the stream is exhausted and all writes drained.
func (c *ReplayCore) Done() bool {
	return c.halted && c.wbLen == 0 && !c.wbInFlight && !c.waiting
}

// Counters implements system.Frontend: the one named counter list that
// both Result and the metrics registry read.
func (c *ReplayCore) Counters() []*stats.Counter {
	return []*stats.Counter{&c.Loads, &c.Stores, &c.RMWs, &c.Fences,
		&c.Instructions, &c.WBForwards}
}

// Tick advances the replay core one cycle. Structure mirrors
// cpu.Core.Tick: drain the write buffer first, then dispatch.
func (c *ReplayCore) Tick(now sim.Cycle) {
	c.drainWriteBuffer(now)

	if c.halted {
		if c.Done() && c.FinishCycle == 0 {
			c.FinishCycle = now
		}
		return
	}
	if c.waiting {
		return
	}
	if c.gapArmed {
		// The async callback fired earlier this cycle; anchor the next
		// op's ready time on it.
		c.readyAt = now + sim.Cycle(c.ops[c.idx].Gap)
		c.gapArmed = false
	}
	if now < c.readyAt {
		return
	}
	if c.stalls != nil {
		c.stallClose(now)
	}
	c.attempt(now)
}

// attempt issues ops[idx]; on rejection the op stays current and is
// retried next tick.
func (c *ReplayCore) attempt(now sim.Cycle) {
	op := &c.ops[c.idx]
	switch op.Kind {
	case config.TraceLoad:
		c.doLoad(now, op)
	case config.TraceStore:
		c.doStore(now, op)
	case config.TraceRMWAdd, config.TraceRMWXchg, config.TraceCAS:
		c.doAtomic(now, op)
	case config.TraceFence:
		c.doFence(now, op)
	case config.TraceHalt:
		c.halted = true
		c.Instructions.Add(op.Instrs)
		c.idx++
	default:
		panic(fmt.Sprintf("trace: replay core %d: bad op kind %d", c.ID, op.Kind))
	}
}

// finishSync completes a synchronously-retiring op: the next op's gap is
// anchored on the current cycle (the gap already covers this op's own
// cycle).
func (c *ReplayCore) finishSync(now sim.Cycle, op *Op) {
	c.Instructions.Add(op.Instrs)
	c.idx++
	if c.idx < len(c.ops) {
		c.readyAt = now + sim.Cycle(c.ops[c.idx].Gap)
	}
}

// finishAsync completes an op whose callback will arrive later: the
// next op's gap is anchored on the callback cycle, resolved by the
// gapArmed step in Tick.
func (c *ReplayCore) finishAsync(op *Op) {
	c.Instructions.Add(op.Instrs)
	c.idx++
	c.waiting = true
	if c.idx < len(c.ops) {
		c.gapArmed = true
	}
}

func (c *ReplayCore) doLoad(now sim.Cycle, op *Op) {
	// Store→load forwarding against the replayed write buffer: the
	// buffer holds the same entries the recorded core's did, so the
	// forwarding decision reproduces.
	for i := c.wbLen - 1; i >= 0; i-- {
		e := &c.wb[(c.wbHead+i)%len(c.wb)]
		if e.addr == op.Addr {
			c.Loads.Inc()
			c.WBForwards.Inc()
			c.finishSync(now, op)
			return
		}
	}
	if !c.port.Load(now, op.Addr, c.loadCb) {
		c.stallOpen(now, obs.StallPortBusy)
		return // port busy; retry next tick
	}
	c.stallOpen(now, obs.StallMissOutstanding)
	c.Loads.Inc()
	c.finishAsync(op)
}

func (c *ReplayCore) doStore(now sim.Cycle, op *Op) {
	if c.wbLen >= len(c.wb) {
		c.stallOpen(now, obs.StallWBFull)
		return // write buffer full; retry
	}
	c.wb[(c.wbHead+c.wbLen)%len(c.wb)] = wbEntry{addr: op.Addr, val: op.Val}
	c.wbLen++
	c.Stores.Inc()
	c.finishSync(now, op)
}

func (c *ReplayCore) doAtomic(now sim.Cycle, op *Op) {
	if c.wbLen > 0 || c.wbInFlight {
		c.stallOpen(now, obs.StallFenceDrain)
		return // locked ops drain the write buffer first
	}
	var f func(old uint64) (uint64, bool)
	c.rmwA = op.Val
	switch op.Kind {
	case config.TraceRMWAdd:
		f = c.fAdd
	case config.TraceRMWXchg:
		f = c.fXchg
	default:
		c.rmwB = op.Val2
		f = c.fCas
	}
	if !c.port.RMW(now, op.Addr, f, c.rmwCb) {
		c.stallOpen(now, obs.StallPortBusy)
		return
	}
	c.stallOpen(now, obs.StallMissOutstanding)
	c.RMWs.Inc()
	c.finishAsync(op)
}

func (c *ReplayCore) doFence(now sim.Cycle, op *Op) {
	if c.wbLen > 0 || c.wbInFlight {
		c.stallOpen(now, obs.StallFenceDrain)
		return
	}
	if !c.port.Fence(now, c.fenceCb) {
		c.stallOpen(now, obs.StallPortBusy)
		return
	}
	c.stallOpen(now, obs.StallFenceDrain)
	c.Fences.Inc()
	c.finishAsync(op)
}

func (c *ReplayCore) drainWriteBuffer(now sim.Cycle) {
	if c.wbInFlight || c.wbLen == 0 {
		return
	}
	head := c.wb[c.wbHead]
	if c.port.Store(now, head.addr, head.val, c.storeCb) {
		c.wbInFlight = true
		c.wbStalled = false
	} else {
		// Same invariant as cpu.Core.drainWriteBuffer: every L1 decline
		// reason is one of this core's own in-flight transactions, whose
		// completion callback wakes the core on the cycle the L1 frees —
		// required for the retry to be dispatched under wake-set
		// scheduling while the core reports WakeNever.
		c.wbStalled = true
	}
}

// NextWake implements sim.WakeHinter; the cases mirror cpu.Core's, with
// readyAt standing in for the instruction stall.
func (c *ReplayCore) NextWake(now sim.Cycle) sim.Cycle {
	if c.wbLen > 0 && !c.wbInFlight && !c.wbStalled {
		return now + 1 // a freshly buffered store to issue
	}
	if c.halted || c.waiting {
		return sim.WakeNever
	}
	if c.gapArmed {
		return now + 1 // anchor resolves on the next tick
	}
	if now+1 < c.readyAt {
		return c.readyAt
	}
	return now + 1
}

// ComponentLabel implements sim.Labeled (forensic reports).
func (c *ReplayCore) ComponentLabel() string { return fmt.Sprintf("replay core %d", c.ID) }

// Debug renders the replay state (deadlock diagnostics).
func (c *ReplayCore) Debug() string {
	return fmt.Sprintf("replay core %d: op %d/%d halted=%v waiting=%v wb=%d inflight=%v readyAt=%d",
		c.ID, c.idx, len(c.ops), c.halted, c.waiting, c.wbLen, c.wbInFlight, c.readyAt)
}
