package coherence

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Hooks are a controller's fault-injection, oracle and observability
// attachment points. The system layer builds one value per controller
// from the fault injector, the oracle tracker and the metrics registry
// and hands it over with a single SetHooks call. Every field is nil in
// a nominal run and every call site is nil-guarded, so a run without
// faults, checks or metrics pays one predictable branch per site. A
// protocol ignores the fields it has no site for (MESI has no
// timestamps, so it never reads ResetFault).
type Hooks struct {
	// EvictFault (L1, the "evict" fault profile) is consulted on
	// accesses that hit a valid, unpinned line; true makes the
	// controller evict the line through its normal victim machinery and
	// take the miss path instead.
	EvictFault func() bool
	// ResetFault (bounded-timestamp controllers, the "reset-storm"
	// profile) is consulted at each timestamp assignment; true forces
	// the reset/rollover broadcast as if the timestamp space were
	// exhausted.
	ResetFault func() bool
	// AckDelay (directories, the "victim" profile) is consulted when a
	// PutAck is about to be scheduled and returns extra cycles to add
	// (0 = on time).
	AckDelay func() sim.Cycle
	// Transition reports every per-line state mutation to the
	// protocol-legality oracle with the line address and the (from, to)
	// state ids: direct hops only, in the protocol's own encodings
	// (0 = invalid/absent). Self-loops are not reported.
	Transition func(addr uint64, from, to int)
	// MissLatency (L1) receives each completed miss's kind and
	// issue-to-completion latency in cycles.
	MissLatency func(read bool, cycles sim.Cycle)
}

// Directory is the full interface of a directory (L2 tile) controller:
// a Controller that owns a TxTable, can name the L1 holding a block
// exclusively, and exposes its protocol-level event counters.
type Directory interface {
	Controller
	sim.Labeled
	// Txs returns the tile's transaction table; the system layer arms
	// its stall hook, lifecycle audit and observability sinks directly.
	Txs() *TxTable
	// SnoopOwner reports the L1 holding addr exclusively, if any, so
	// post-run functional reads snoop only the cache that can hold a
	// fresher copy.
	SnoopOwner(addr uint64) (NodeID, bool)
	// Counters returns the tile's named protocol counters (the TxTable's
	// own lifecycle counters are not included; read them from Txs).
	Counters() []*stats.Counter
}
