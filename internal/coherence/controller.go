package coherence

import "repro/internal/sim"

// Controller is the engine-facing interface of any coherence endpoint
// (L1 or L2). Deliver is the mesh endpoint hook; Busy reports whether
// transactions, queued messages or timers are still outstanding (used by
// the system-level completion and deadlock checks); NextWake is the
// sim.WakeHinter scheduling contract (the earliest cycle the controller
// may act on its own, or sim.WakeNever); BindWaker is the sim.WakeSink
// hook — controllers must wake themselves whenever work lands on them
// from outside their own Tick (a delivered message, a timer scheduled
// by the core's port call), since the wake-set engine ticks only due
// components and re-polls NextWake only after a tick.
type Controller interface {
	Deliver(now sim.Cycle, m *Msg)
	Tick(now sim.Cycle)
	NextWake(now sim.Cycle) sim.Cycle
	BindWaker(w sim.Waker)
	Busy() bool
	// SnoopBlock returns the controller's copy of the block at addr if it
	// holds an authoritative one (L1: Exclusive/Modified; L2: any valid
	// line). Used after a run completes so functional checks observe the
	// freshest value without forcing writebacks.
	SnoopBlock(addr uint64) ([]byte, bool)
	// SetHooks attaches the controller's fault, oracle and
	// observability hooks (see Hooks).
	SetHooks(h Hooks)
	// PrewarmStorage materializes lazily allocated cache storage.
	// Timing harnesses call it before starting the clock so first-touch
	// chunk allocation lands in setup, not in the measured run.
	PrewarmStorage()
}

// L1Like is the full interface of a private-cache controller: a
// Controller that also serves its core's memory operations and exposes
// the standard statistics block.
type L1Like interface {
	Controller
	CorePort
	L1Stats() *L1Stats
}
