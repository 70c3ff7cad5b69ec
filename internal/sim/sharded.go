package sim

import (
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ShardedEngine runs the wake-set scheduler in parallel across shards:
// each shard is a private Engine owning a disjoint subset of the
// system's components (whole tiles — a core, its L1, its directory
// slice — so every intra-cycle stimulation stays shard-local), advanced
// by its own goroutine. Shards synchronize at epoch barriers whose
// length is the caller-supplied conservative lookahead: the minimum
// latency of any cross-shard interaction. Inside a window [S, S+L) a
// shard may freely dispatch every due cycle, because nothing another
// shard does during the same window can become visible to it before
// S+L. Cross-shard traffic generated inside the window is buffered by
// the communication layer (the sharded mesh) and replayed at the
// barrier by the merge hook — single-threaded, in a deterministic order
// keyed by (send cycle, sender's serial registration index, per-shard
// sequence) — so every run is bit-identical to the single-threaded
// wake-set engine regardless of goroutine interleaving.
//
// Registration carries the component's canonical index: its position in
// the registration order the serial engine would have used. The merge
// key and forensic snapshots are expressed in canonical order, which is
// what makes the parallel schedule indistinguishable from the serial
// one.
type ShardedEngine struct {
	shards   []*Engine
	canon    [][]int // canon[s][localIdx] = canonical registration index
	maxCycle Cycle
	look     Cycle
	merge    func(windowEnd Cycle)

	windowEnd Cycle
	stopped   bool
	started   bool
	start     barrier
	finish    barrier
	workers   sync.WaitGroup

	// Observability (internal/obs). barrierNs, when armed, accumulates
	// each shard goroutine's host time spent waiting at the two epoch
	// barriers (written only by that shard's goroutine, read after the
	// run); tl receives epoch and per-shard barrier-wait spans from the
	// coordinator between epochs; profLabels tags each shard goroutine
	// with a pprof label.
	barrierNs  []int64
	tl         *obs.Timeline
	profLabels bool
}

// NewShardedEngine builds a sharded engine with the given shard count,
// conservative lookahead (the epoch length; must be the minimum
// cross-shard latency or less), and cycle limit (0 selects the same
// generous default as NewEngine).
func NewShardedEngine(shards int, lookahead, maxCycle Cycle) *ShardedEngine {
	if shards <= 0 {
		panic("sim: sharded engine needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: lookahead must be positive")
	}
	if maxCycle <= 0 {
		maxCycle = 500_000_000
	}
	se := &ShardedEngine{
		shards:   make([]*Engine, shards),
		canon:    make([][]int, shards),
		maxCycle: maxCycle,
		look:     lookahead,
	}
	for i := range se.shards {
		se.shards[i] = NewEngine(maxCycle)
	}
	se.start.n = int32(shards)
	se.finish.n = int32(shards)
	if runtime.NumCPU() < shards {
		// Oversubscribed host: a waiting goroutine's spin only steals the
		// CPU from the shard it is waiting for. Yield immediately.
		se.start.spin = 0
		se.finish.spin = 0
	} else {
		se.start.spin = 128
		se.finish.spin = 128
	}
	return se
}

// SetMerge installs the barrier merge hook: called once per epoch, on
// the coordinator goroutine, after every shard has finished the window
// and before the next window is chosen. It must drain all cross-shard
// buffers deterministically (the sharded mesh's MergeEpoch).
func (se *ShardedEngine) SetMerge(m func(windowEnd Cycle)) { se.merge = m }

// Shards reports the shard count.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Lookahead reports the epoch length.
func (se *ShardedEngine) Lookahead() Cycle { return se.look }

// Register adds a ticker to a shard, recording its canonical (serial
// registration order) index. Within each shard, components must be
// registered in ascending canonical order — local dispatch order is
// local registration order, and it must agree with the serial engine's.
func (se *ShardedEngine) Register(shard, canonical int, t Ticker) {
	sh := se.shards[shard]
	if n := len(se.canon[shard]); n > 0 && se.canon[shard][n-1] >= canonical {
		panic(fmt.Sprintf("sim: shard %d registration out of canonical order (%d after %d)",
			shard, canonical, se.canon[shard][n-1]))
	}
	se.canon[shard] = append(se.canon[shard], canonical)
	sh.Register(t)
}

// RegisterDoner adds a completion check to a shard. The sharded run
// completes when every shard's checks pass at a barrier.
func (se *ShardedEngine) RegisterDoner(shard int, d Doner) {
	se.shards[shard].RegisterDoner(d)
}

// DispatchPos reports the canonical index of the component a shard is
// currently dispatching. The sharded mesh calls this (from the shard's
// own goroutine) to stamp outbound messages with their serial-order
// merge key.
func (se *ShardedEngine) DispatchPos(shard int) int {
	return se.canon[shard][se.shards[shard].DispatchIndex()]
}

// Shard exposes one shard's private engine for observability wiring
// (per-shard dispatch histograms); the caller must not touch it while
// a run is in flight.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// EnableBarrierClock arms per-shard host-time accounting of epoch
// barrier waits; read the totals with BarrierWaitNs after the run.
// Host time is never part of a Result, so the clock cannot perturb
// simulation state.
func (se *ShardedEngine) EnableBarrierClock() {
	se.barrierNs = make([]int64, len(se.shards))
}

// BarrierWaitNs reports the host nanoseconds shard i spent waiting at
// epoch barriers (0 when the clock was never armed).
func (se *ShardedEngine) BarrierWaitNs(i int) int64 {
	if se.barrierNs == nil {
		return 0
	}
	return se.barrierNs[i]
}

// SetTimeline installs a timeline sink: every shard engine emits its
// component tick spans on process = shard id with canonical-serial
// thread ids, and the coordinator emits epoch spans plus per-shard
// barrier-wait spans (the simulated-time tail of each window after the
// shard's last dispatch — the lopsided-shard signature) on
// obs.PidEngine. Call after registration.
func (se *ShardedEngine) SetTimeline(tl *obs.Timeline) {
	se.tl = tl
	tl.ProcessName(obs.PidEngine, "engine epochs")
	tl.ThreadName(obs.PidEngine, 0, "epoch window")
	for s, sh := range se.shards {
		tl.ProcessName(s, "shard "+strconv.Itoa(s))
		tl.ThreadName(obs.PidEngine, 1+s, "shard "+strconv.Itoa(s)+" barrier wait")
		sh.SetTimeline(tl, s, se.canon[s])
	}
}

// EnableProfileLabels arms pprof labeling: each shard goroutine is
// labeled shard=<i> and every component tick switches to its
// per-component label context (Engine.EnableProfileLabels).
func (se *ShardedEngine) EnableProfileLabels() {
	se.profLabels = true
	for s, sh := range se.shards {
		sh.EnableProfileLabels(strconv.Itoa(s))
	}
}

// await waits at b, accounting the wait to shard i's barrier clock
// when armed.
func (se *ShardedEngine) await(b *barrier, i int) {
	if se.barrierNs == nil {
		b.await()
		return
	}
	t0 := time.Now()
	b.await()
	se.barrierNs[i] += time.Since(t0).Nanoseconds()
}

// MarkShardActive clears a shard's quiescence episode (see
// Engine.MarkActive); the merge hook calls it for every shard it
// delivered cross-shard work into.
func (se *ShardedEngine) MarkShardActive(shard int) {
	se.shards[shard].MarkActive()
}

// Now reports the most advanced shard-local cycle (forensics; during a
// run this is only safe to call from the coordinator between epochs).
func (se *ShardedEngine) Now() Cycle {
	now := Cycle(0)
	for _, sh := range se.shards {
		if sh.Now() > now {
			now = sh.Now()
		}
	}
	return now
}

// Snapshot merges every shard's component snapshot into canonical
// order, for forensic reports that look exactly like serial ones.
func (se *ShardedEngine) Snapshot() []PendingComponent {
	type entry struct {
		canonical int
		shard     int
		pc        PendingComponent
	}
	var all []entry
	var external []PendingComponent
	for s, sh := range se.shards {
		for _, pc := range sh.Snapshot() {
			if pc.Index < 0 {
				external = append(external, pc)
				continue
			}
			e := entry{canonical: se.canon[s][pc.Index], shard: s, pc: pc}
			e.pc.Index = e.canonical
			all = append(all, e)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].canonical != all[j].canonical {
			return all[i].canonical < all[j].canonical
		}
		return all[i].shard < all[j].shard
	})
	out := make([]PendingComponent, 0, len(all)+len(external))
	for _, e := range all {
		out = append(out, e.pc)
	}
	return append(out, external...)
}

func (se *ShardedEngine) deadlockError(at Cycle, stalled bool) *DeadlockError {
	return &DeadlockError{
		Cycle:      at,
		Limit:      se.maxCycle,
		Stalled:    stalled,
		Components: se.Snapshot(),
	}
}

// Run advances all shards until every shard's Doners report done at a
// barrier, or the cycle limit is hit. The returned cycle is exactly
// what the serial engine would have returned: the latest cycle at which
// any shard performed the dispatch that (most recently) quiesced it.
func (se *ShardedEngine) Run() (Cycle, error) {
	for s, sh := range se.shards {
		if len(sh.doners) == 0 {
			return 0, fmt.Errorf("sim: shard %d has no completion conditions registered", s)
		}
		if !sh.EventDriven() {
			return 0, fmt.Errorf("sim: shard %d cannot run wake-set scheduling (missing hints)", s)
		}
	}
	se.workers.Add(len(se.shards) - 1)
	for i := 1; i < len(se.shards); i++ {
		go se.worker(i)
	}
	se.started = true
	defer se.shutdown()
	for {
		quiesced := true
		for _, sh := range se.shards {
			if !sh.Quiesced() {
				quiesced = false
				break
			}
		}
		if quiesced {
			done := Cycle(0)
			for _, sh := range se.shards {
				if sh.DoneAt() > done {
					done = sh.DoneAt()
				}
			}
			return done, nil
		}
		next := WakeNever
		for _, sh := range se.shards {
			if d := sh.NextDue(); d < next {
				next = d
			}
		}
		if next == WakeNever {
			// No shard will ever act again, yet completion checks are
			// pending: a true deadlock, reported at the stall cycle.
			return se.Now(), se.deadlockError(se.Now(), true)
		}
		if next > se.maxCycle {
			return se.maxCycle, se.deadlockError(se.maxCycle, false)
		}
		end := next + se.look
		if end > se.maxCycle+1 {
			// Never dispatch past the limit: serial execution stops there.
			end = se.maxCycle + 1
		}
		se.windowEnd = end
		se.start.await()
		se.shards[0].RunWindow(end)
		se.await(&se.finish, 0)
		if se.tl != nil {
			// Between the finish barrier and the merge every shard is
			// parked, so reading shard state here is safe. Each shard's
			// barrier-wait span covers the simulated tail of the window
			// after its last dispatch — a lopsided shard shows as one
			// short-wait track among long-wait ones.
			se.tl.Span(obs.PidEngine, 0, "epoch", int64(next), int64(end))
			for s, sh := range se.shards {
				last := sh.Now()
				if last < next-1 {
					last = next - 1
				}
				se.tl.Span(obs.PidEngine, 1+s, "barrier_wait", int64(last)+1, int64(end))
			}
		}
		if se.merge != nil {
			se.merge(end)
		}
	}
}

// worker is the epoch loop of one non-coordinator shard.
func (se *ShardedEngine) worker(i int) {
	defer se.workers.Done()
	if se.profLabels {
		pprof.SetGoroutineLabels(pprof.WithLabels(se.shards[i].baseCtx,
			pprof.Labels("shard", strconv.Itoa(i))))
	}
	for {
		se.await(&se.start, i)
		if se.stopped {
			return
		}
		se.shards[i].RunWindow(se.windowEnd)
		se.await(&se.finish, i)
	}
}

// shutdown releases the workers and joins them: they observe stopped
// after the start barrier and exit without touching shard state again.
// The join matters because a worker still accounts its final start-barrier
// wait to barrierNs after the barrier opens; Run must not return (and let
// the caller read BarrierWaitNs) until that write is done.
func (se *ShardedEngine) shutdown() {
	if !se.started || len(se.shards) == 1 {
		se.started = false
		return
	}
	se.stopped = true
	se.start.await()
	se.workers.Wait()
	se.started = false
}

// barrier is a sense-reversing spin barrier. Epochs are short (a few
// cycles of simulated work), so the synchronization cost must stay in
// the nanosecond range when a core is available; after a bounded spin
// it yields so oversubscribed hosts (fewer cores than shards) make
// progress instead of burning a scheduling quantum. Atomic operations
// order the coordinator's window/stop writes before the workers' reads.
type barrier struct {
	n     int32
	spin  int
	count atomic.Int32
	gen   atomic.Uint32
}

func (b *barrier) await() {
	gen := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	for spins := 0; b.gen.Load() == gen; spins++ {
		if spins >= b.spin {
			runtime.Gosched()
		}
	}
}
