package workloads

import (
	"fmt"

	"repro/internal/program"
)

// ---- Archetype: data-parallel over read-only tables ----
// (blackscholes, raytrace). Threads stream a shared read-only table,
// re-read a hot shared params block, and write private outputs. The
// read-mostly data is what the SharedRO optimization targets.

type dataParallelCfg struct {
	iters       int64
	tableWords  int64
	paramsReads int64 // hot-block re-reads per iteration
	computeNops int64
	workQueue   bool // raytrace: fetch-add a shared work counter per item
}

func dataParallel(name string, p Params, c dataParallelCfg) *program.Workload {
	paramsAddr := int64(roBase + 0x0020_0000)
	queueAddr := int64(dataBase + 0x0020_0000)
	progs := make([]*program.Program, max(p.Threads, 0))
	iters := p.scale(c.iters)
	for t := 0; t < p.Threads; t++ {
		b := program.NewBuilder(fmt.Sprintf("%s-t%d", name, t))
		b.Li(1, roBase)
		b.Li(2, privBase)
		b.Shl(3, regTID, 20)
		b.Add(2, 2, 3) // r2 = private out region
		b.Li(3, 0)     // i
		b.Li(4, iters)
		b.Li(5, int64(p.Seed)*2654435761+int64(t+1)*40503) // rnd
		b.Label("loop")
		if c.workQueue {
			b.Li(6, queueAddr)
			b.Li(7, 1)
			b.RmwAdd(7, 6, 0, 7) // grab a work item
		}
		emitLCG(b, 5, 6, 7, c.tableWords)
		b.Shl(6, 6, 3)
		b.Add(6, 6, 1)
		b.Ld(7, 6, 0) // shared read-only table read
		for k := int64(0); k < c.paramsReads; k++ {
			b.Li(6, paramsAddr+k*8)
			b.Ld(7, 6, 0) // hot params block
		}
		if c.computeNops > 0 {
			b.Nop(c.computeNops)
		}
		b.Mod(6, 3, 4096)
		b.Shl(6, 6, 3)
		b.Add(6, 6, 2)
		b.St(6, 0, 3) // private output
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "loop")
		emitBarrier(b, int64(p.Threads))
		publishResult(b, 3)
		b.Halt()
		progs[t] = b.MustBuild()
	}
	return &program.Workload{
		Name:     name,
		Programs: progs,
		Check:    checkResults(p.Threads, uint64(iters)),
	}
}

// ---- Archetype: scattered swaps (canneal) ----
// Low-locality reads and writes over a large shared array, with an
// occasional shared RMW; sharers are effectively random.

type scatterSwapCfg struct {
	iters      int64
	arrayWords int64
	rmwEvery   int64
}

func scatterSwap(name string, p Params, c scatterSwapCfg) *program.Workload {
	acceptAddr := int64(dataBase + 0x0040_0000)
	progs := make([]*program.Program, max(p.Threads, 0))
	iters := p.scale(c.iters)
	for t := 0; t < p.Threads; t++ {
		b := program.NewBuilder(fmt.Sprintf("%s-t%d", name, t))
		b.Li(1, dataBase)
		b.Li(3, 0)
		b.Li(4, iters)
		b.Li(5, int64(p.Seed)+int64(t+1)*95279)
		b.Label("loop")
		emitLCG(b, 5, 6, 7, c.arrayWords)
		b.Shl(6, 6, 3)
		b.Add(6, 6, 1) // &arr[idx1]
		emitLCG(b, 5, 7, 2, c.arrayWords)
		b.Shl(7, 7, 3)
		b.Add(7, 7, 1) // &arr[idx2]
		b.Ld(8, 6, 0)
		b.Ld(9, 7, 0)
		b.St(6, 0, 9) // swap
		b.St(7, 0, 8)
		if c.rmwEvery > 0 {
			b.Mod(2, 3, c.rmwEvery)
			b.Li(9, 0)
			b.Bne(2, 9, "skiprmw")
			b.Li(2, acceptAddr)
			b.Li(9, 1)
			b.RmwAdd(9, 2, 0, 9)
			b.Label("skiprmw")
		}
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "loop")
		emitBarrier(b, int64(p.Threads))
		publishResult(b, 3)
		b.Halt()
		progs[t] = b.MustBuild()
	}
	return &program.Workload{
		Name:     name,
		Programs: progs,
		Check:    checkResults(p.Threads, uint64(iters)),
	}
}

// ---- Archetype: lock-protected hash table (dedup, genome) ----
// Bucket counters guarded by per-bucket spinlocks; the check verifies
// mutual exclusion exactly (lost updates would break the sum).

type lockHashCfg struct {
	iters       int64
	buckets     int64
	computeNops int64
}

func lockHash(name string, p Params, c lockHashCfg) *program.Workload {
	bucketBase := int64(dataBase) // bucket i counter at +i*64
	progs := make([]*program.Program, max(p.Threads, 0))
	iters := p.scale(c.iters)
	for t := 0; t < p.Threads; t++ {
		b := program.NewBuilder(fmt.Sprintf("%s-t%d", name, t))
		b.Li(3, 0)
		b.Li(4, iters)
		b.Li(5, int64(p.Seed)+int64(t+1)*48271)
		b.Label("loop")
		emitLCG(b, 5, 6, 7, c.buckets)
		emitLock(b, 6) // lock bucket r6; lock addr in r10
		b.Li(7, bucketBase)
		b.Shl(2, 6, 6) // bucket * 64
		b.Add(7, 7, 2)
		b.Ld(2, 7, 0) // non-atomic increment under the lock
		b.Addi(2, 2, 1)
		b.St(7, 0, 2)
		emitUnlock(b)
		if c.computeNops > 0 {
			b.Nop(c.computeNops)
		}
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "loop")
		emitBarrier(b, int64(p.Threads))
		publishResult(b, 3)
		b.Halt()
		progs[t] = b.MustBuild()
	}
	total := uint64(iters) * uint64(p.Threads)
	buckets := c.buckets
	return &program.Workload{
		Name:     name,
		Programs: progs,
		Check: func(mem program.MemReader) error {
			var sum uint64
			for i := int64(0); i < buckets; i++ {
				sum += mem.ReadWord(uint64(bucketBase + i*64))
			}
			if sum != total {
				return fmt.Errorf("bucket sum = %d, want %d (mutual exclusion violated)", sum, total)
			}
			return checkResults(p.Threads, uint64(iters))(mem)
		},
	}
}

// ---- Archetype: pipeline with flag handshakes (x264) ----
// Thread t consumes thread t-1's output, item by item, synchronizing
// through polling flag acquires — the paper's Figure 1 pattern at scale.

type pipelineCfg struct {
	items       int64
	computeNops int64
}

func pipeline(name string, p Params, c pipelineCfg) *program.Workload {
	progs := make([]*program.Program, max(p.Threads, 0))
	items := p.scale(c.items)
	for t := 0; t < p.Threads; t++ {
		b := program.NewBuilder(fmt.Sprintf("%s-t%d", name, t))
		b.Li(1, int64(dataBase)+int64(t)*0x10000)   // own output region
		b.Li(2, int64(dataBase)+int64(t-1)*0x10000) // upstream region
		b.Li(3, 0)                                  // item i
		b.Li(4, items)
		b.Label("loop")
		if t > 0 {
			// Acquire: wait until upstream published item i+1.
			b.Li(6, flagsBase+int64(t-1)*64)
			b.Addi(7, 3, 1)
			b.Label("spin")
			b.Ld(5, 6, 0)
			b.Blt(5, 7, "spin")
			// Consume upstream value.
			b.Mod(6, 3, 1024)
			b.Shl(6, 6, 3)
			b.Add(6, 6, 2)
			b.Ld(5, 6, 0)
		}
		if c.computeNops > 0 {
			b.Nop(c.computeNops)
		}
		// Produce own value.
		b.Mod(6, 3, 1024)
		b.Shl(6, 6, 3)
		b.Add(6, 6, 1)
		b.Addi(5, 3, 100)
		b.St(6, 0, 5)
		// Release: publish item count.
		b.Li(6, flagsBase+int64(t)*64)
		b.Addi(7, 3, 1)
		b.St(6, 0, 7)
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "loop")
		publishResult(b, 3)
		b.Halt()
		progs[t] = b.MustBuild()
	}
	return &program.Workload{
		Name:     name,
		Programs: progs,
		Check:    checkResults(p.Threads, uint64(items)),
	}
}

// ---- Archetype: phased all-to-all exchange (fft transpose) ----

type allToAllCfg struct {
	phases int64
	words  int64 // words produced/consumed per thread per phase
}

func allToAll(name string, p Params, c allToAllCfg) *program.Workload {
	progs := make([]*program.Program, max(p.Threads, 0))
	phases := p.scale(c.phases)
	region := func(t int64) int64 { return int64(dataBase) + t*0x10000 }
	for t := 0; t < p.Threads; t++ {
		b := program.NewBuilder(fmt.Sprintf("%s-t%d", name, t))
		b.Li(4, phases)
		b.Li(5, 0) // phase
		b.Label("phase")
		// Produce into own region.
		b.Li(1, region(int64(t)))
		b.Li(3, 0)
		b.Li(6, c.words)
		b.Label("produce")
		b.Shl(7, 3, 3)
		b.Add(7, 7, 1)
		b.Add(2, 3, 5)
		b.St(7, 0, 2)
		b.Addi(3, 3, 1)
		b.Blt(3, 6, "produce")
		emitBarrier(b, int64(p.Threads))
		// Consume a rotating partner's region (all-to-all over phases).
		b.Addi(2, 5, int64(t)+1)
		b.Mod(2, 2, int64(p.Threads))
		b.Shl(2, 2, 16)
		b.Li(1, dataBase)
		b.Add(1, 1, 2)
		b.Li(3, 0)
		b.Label("consume")
		b.Shl(7, 3, 3)
		b.Add(7, 7, 1)
		b.Ld(2, 7, 0)
		b.Addi(3, 3, 1)
		b.Blt(3, 6, "consume")
		emitBarrier(b, int64(p.Threads))
		b.Addi(5, 5, 1)
		b.Blt(5, 4, "phase")
		publishResult(b, 5)
		b.Halt()
		progs[t] = b.MustBuild()
	}
	return &program.Workload{
		Name:     name,
		Programs: progs,
		Check:    checkResults(p.Threads, uint64(phases)),
	}
}

// ---- Archetype: blocked factorization (lu cont / non-cont) ----
// Phase k: the pivot owner writes the pivot block; everyone reads it and
// updates their own portion. With falseSharing, per-thread updates are
// word-interleaved so unrelated threads write the same cache lines —
// the contiguous layout gives each thread whole blocks.

type blockedCfg struct {
	phases       int64
	pivotWords   int64
	updateWords  int64
	falseSharing bool
}

func blocked(name string, p Params, c blockedCfg) *program.Workload {
	pivotBase := int64(dataBase + 0x0080_0000)
	progs := make([]*program.Program, max(p.Threads, 0))
	phases := p.scale(c.phases)
	for t := 0; t < p.Threads; t++ {
		b := program.NewBuilder(fmt.Sprintf("%s-t%d", name, t))
		b.Li(4, phases)
		b.Li(5, 0) // k
		b.Label("phase")
		// Pivot owner writes the pivot block.
		b.Mod(2, 5, int64(p.Threads))
		b.Li(3, int64(t))
		b.Bne(2, 3, "notowner")
		b.Li(1, pivotBase)
		b.Li(3, 0)
		b.Li(6, c.pivotWords)
		b.Label("wpivot")
		b.Shl(7, 3, 3)
		b.Add(7, 7, 1)
		b.St(7, 0, 5)
		b.Addi(3, 3, 1)
		b.Blt(3, 6, "wpivot")
		b.Label("notowner")
		emitBarrier(b, int64(p.Threads))
		// Everyone reads the pivot block.
		b.Li(1, pivotBase)
		b.Li(3, 0)
		b.Li(6, c.pivotWords)
		b.Label("rpivot")
		b.Shl(7, 3, 3)
		b.Add(7, 7, 1)
		b.Ld(2, 7, 0)
		b.Addi(3, 3, 1)
		b.Blt(3, 6, "rpivot")
		// Update own portion of the matrix.
		b.Li(3, 0)
		b.Li(6, c.updateWords)
		b.Label("update")
		if c.falseSharing {
			// Word i of thread t lives at (i*T + t): threads
			// interleave within cache lines.
			b.Li(7, int64(p.Threads))
			b.Mul(7, 3, 7)
			b.Addi(7, 7, int64(t))
			b.Shl(7, 7, 3)
			b.Li(2, dataBase)
			b.Add(7, 7, 2)
		} else {
			// Contiguous: thread t owns a dense region.
			b.Shl(7, 3, 3)
			b.Li(2, int64(dataBase)+int64(t)*0x20000)
			b.Add(7, 7, 2)
		}
		b.Ld(2, 7, 0)
		b.Add(2, 2, 5)
		b.St(7, 0, 2)
		b.Addi(3, 3, 1)
		b.Blt(3, 6, "update")
		emitBarrier(b, int64(p.Threads))
		b.Addi(5, 5, 1)
		b.Blt(5, 4, "phase")
		publishResult(b, 5)
		b.Halt()
		progs[t] = b.MustBuild()
	}
	return &program.Workload{
		Name:     name,
		Programs: progs,
		Check:    checkResults(p.Threads, uint64(phases)),
	}
}

// ---- Archetype: histogram + scatter (radix) ----
// Private counting, a fetch-add offset phase, then permutation writes
// scattered over a shared array: a high shared-write-miss benchmark.

type radixCfg struct {
	keysPerThread int64
	bucketsN      int64
	arrayWords    int64
}

func radixSort(name string, p Params, c radixCfg) *program.Workload {
	histBase := int64(dataBase + 0x0040_0000) // global bucket counters
	progs := make([]*program.Program, max(p.Threads, 0))
	keys := p.scale(c.keysPerThread)
	for t := 0; t < p.Threads; t++ {
		b := program.NewBuilder(fmt.Sprintf("%s-t%d", name, t))
		// Phase 1: count keys into a private histogram.
		b.Li(1, privBase)
		b.Shl(2, regTID, 20)
		b.Add(1, 1, 2)
		b.Li(3, 0)
		b.Li(4, keys)
		b.Li(5, int64(p.Seed)+int64(t+1)*69621)
		b.Label("count")
		emitLCG(b, 5, 6, 7, c.bucketsN)
		b.Shl(6, 6, 3)
		b.Add(6, 6, 1)
		b.Ld(7, 6, 0)
		b.Addi(7, 7, 1)
		b.St(6, 0, 7)
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "count")
		emitBarrier(b, int64(p.Threads))
		// Phase 2: publish counts with fetch-adds on global buckets.
		b.Li(3, 0)
		b.Li(4, c.bucketsN)
		b.Label("offsets")
		b.Shl(6, 3, 3)
		b.Add(6, 6, 1)
		b.Ld(7, 6, 0) // private count
		b.Li(2, histBase)
		b.Shl(6, 3, 3)
		b.Add(6, 6, 2)
		b.RmwAdd(2, 6, 0, 7)
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "offsets")
		emitBarrier(b, int64(p.Threads))
		// Phase 3: scattered permutation writes.
		b.Li(1, dataBase)
		b.Li(3, 0)
		b.Li(4, keys)
		b.Label("scatter")
		emitLCG(b, 5, 6, 7, c.arrayWords)
		b.Shl(6, 6, 3)
		b.Add(6, 6, 1)
		b.St(6, 0, 3)
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "scatter")
		emitBarrier(b, int64(p.Threads))
		publishResult(b, 3)
		b.Halt()
		progs[t] = b.MustBuild()
	}
	total := uint64(keys) * uint64(p.Threads)
	buckets := c.bucketsN
	return &program.Workload{
		Name:     name,
		Programs: progs,
		Check: func(mem program.MemReader) error {
			var sum uint64
			for i := int64(0); i < buckets; i++ {
				sum += mem.ReadWord(uint64(histBase + i*8))
			}
			if sum != total {
				return fmt.Errorf("global histogram = %d, want %d (RMW atomicity violated)", sum, total)
			}
			return checkResults(p.Threads, uint64(keys))(mem)
		},
	}
}

// ---- Archetype: neighbor updates under fine-grained locks ----
// (fluidanimate, water-nsquared): mostly-private compute with locked
// updates to shared cells; lock density and compute differ per kernel.

type neighborCfg struct {
	iters       int64
	cells       int64
	locks       int64
	privateOps  int64 // private updates between locked updates
	computeNops int64
	phases      int64 // barriers between phases (0 = none)
}

func neighbor(name string, p Params, c neighborCfg) *program.Workload {
	cellBase := int64(dataBase) // cell i at +i*64
	progs := make([]*program.Program, max(p.Threads, 0))
	iters := p.scale(c.iters)
	for t := 0; t < p.Threads; t++ {
		b := program.NewBuilder(fmt.Sprintf("%s-t%d", name, t))
		b.Li(3, 0)
		b.Li(4, iters)
		b.Li(5, int64(p.Seed)+int64(t+1)*31337)
		b.Label("loop")
		// Private compute region.
		if c.privateOps > 0 {
			b.Li(1, privBase)
			b.Shl(2, regTID, 20)
			b.Add(1, 1, 2)
			b.Li(2, 0)
			b.Li(6, c.privateOps)
			b.Label("priv")
			b.Shl(7, 2, 3)
			b.Add(7, 7, 1)
			b.Ld(8, 7, 0)
			b.Addi(8, 8, 1)
			b.St(7, 0, 8)
			b.Addi(2, 2, 1)
			b.Blt(2, 6, "priv")
		}
		if c.computeNops > 0 {
			b.Nop(c.computeNops)
		}
		// Locked shared-cell update.
		emitLCG(b, 5, 6, 7, c.cells)
		b.Mod(7, 6, c.locks)
		b.Mov(2, 6) // save cell index (emitLock clobbers r6-r10)
		emitLock(b, 7)
		b.Li(7, cellBase)
		b.Shl(6, 2, 6)
		b.Add(7, 7, 6)
		b.Ld(6, 7, 0)
		b.Addi(6, 6, 1)
		b.St(7, 0, 6)
		emitUnlock(b)
		b.Addi(3, 3, 1)
		if c.phases > 0 {
			b.Mod(2, 3, iters/c.phases+1)
			b.Li(6, 0)
			b.Bne(2, 6, "nobar")
			emitBarrier(b, int64(p.Threads))
			b.Label("nobar")
		}
		b.Blt(3, 4, "loop")
		emitBarrier(b, int64(p.Threads))
		publishResult(b, 3)
		b.Halt()
		progs[t] = b.MustBuild()
	}
	total := uint64(iters) * uint64(p.Threads)
	cells := c.cells
	return &program.Workload{
		Name:     name,
		Programs: progs,
		Check: func(mem program.MemReader) error {
			var sum uint64
			for i := int64(0); i < cells; i++ {
				sum += mem.ReadWord(uint64(cellBase + i*64))
			}
			if sum != total {
				return fmt.Errorf("cell sum = %d, want %d (lock mutual exclusion violated)", sum, total)
			}
			return checkResults(p.Threads, uint64(iters))(mem)
		},
	}
}

// ---- Archetype: NOrec-style STM transactions (STAMP) ----
// NOrec serializes commits through a global sequence lock: a transaction
// snapshots the version clock, reads its read set speculatively, and
// commits by CAS-ing the clock from its snapshot (retrying the whole
// transaction on conflict), writing its write set, and releasing with a
// plain store of snapshot+2. This makes the version clock an extremely
// hot RMW target read by every transaction — the pattern behind the
// paper's intruder result (TSO-CC writes to shared lines need no
// invalidation fan-out; Figure 8's RMW latencies).

type stmCfg struct {
	txns       int64
	txReads    int64
	txWrites   int64
	tableWords int64
	thinkNops  int64
}

func stm(name string, p Params, c stmCfg) *program.Workload {
	clockAddr := int64(dataBase + 0x0040_0000)
	progs := make([]*program.Program, max(p.Threads, 0))
	txns := p.scale(c.txns)
	for t := 0; t < p.Threads; t++ {
		b := program.NewBuilder(fmt.Sprintf("%s-t%d", name, t))
		b.Li(3, 0)
		b.Li(4, txns)
		b.Li(5, int64(p.Seed)+int64(t+1)*86243)
		b.Label("tx")
		// Snapshot the version clock; wait out an in-flight commit
		// (odd snapshot), as NOrec does.
		b.Li(1, clockAddr)
		b.Ld(11, 1, 0) // r11 = snapshot
		b.Mod(2, 11, 2)
		b.Li(6, 0)
		b.Bne(2, 6, "tx")
		// Speculative read set.
		b.Li(6, 0)
		b.Li(7, c.txReads)
		b.Label("reads")
		emitLCG(b, 5, 2, 1, c.tableWords)
		b.Shl(2, 2, 3)
		b.Li(1, dataBase)
		b.Add(2, 2, 1)
		b.Ld(1, 2, 0)
		b.Addi(6, 6, 1)
		b.Blt(6, 7, "reads")
		// Commit: CAS the clock from snapshot to snapshot+1 (odd =
		// committing). Failure means a concurrent commit — retry the
		// transaction after a thread-specific backoff (breaks lockstep).
		b.Li(1, clockAddr)
		b.Addi(12, 11, 1) // r12 = snapshot+1
		b.Cas(2, 1, 0, 11, 12)
		b.Beq(2, 11, "commit")
		b.Nop(int64(t%7) + 2)
		b.Jmp("tx")
		b.Label("commit")
		// Write set.
		b.Li(6, 0)
		b.Li(7, c.txWrites)
		b.Label("writes")
		emitLCG(b, 5, 2, 1, c.tableWords)
		b.Shl(2, 2, 3)
		b.Li(1, dataBase)
		b.Add(2, 2, 1)
		b.Ld(1, 2, 0)
		b.Addi(1, 1, 1)
		b.St(2, 0, 1)
		b.Addi(6, 6, 1)
		b.Blt(6, 7, "writes")
		// Release: clock = snapshot+2 (even again).
		b.Li(1, clockAddr)
		b.Addi(12, 11, 2)
		b.St(1, 0, 12)
		// Non-transactional work between transactions (packet
		// processing, tree rebalancing, ...).
		if c.thinkNops > 0 {
			b.Nop(c.thinkNops)
		}
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "tx")
		emitBarrier(b, int64(p.Threads))
		publishResult(b, 3)
		b.Halt()
		progs[t] = b.MustBuild()
	}
	total := uint64(txns) * uint64(p.Threads)
	return &program.Workload{
		Name:     name,
		Programs: progs,
		Check: func(mem program.MemReader) error {
			if got := mem.ReadWord(uint64(clockAddr)); got != 2*total {
				return fmt.Errorf("version clock = %d, want %d (seqlock commit violated)", got, 2*total)
			}
			return checkResults(p.Threads, uint64(txns))(mem)
		},
	}
}

// ---- Archetype: scattered atomic adds (ssca2 graph updates) ----

type atomicScatterCfg struct {
	iters int64
	nodes int64
}

func atomicScatter(name string, p Params, c atomicScatterCfg) *program.Workload {
	nodeBase := int64(dataBase)
	progs := make([]*program.Program, max(p.Threads, 0))
	iters := p.scale(c.iters)
	for t := 0; t < p.Threads; t++ {
		b := program.NewBuilder(fmt.Sprintf("%s-t%d", name, t))
		b.Li(3, 0)
		b.Li(4, iters)
		b.Li(5, int64(p.Seed)+int64(t+1)*75321)
		b.Li(2, 1)
		b.Label("loop")
		emitLCG(b, 5, 6, 7, c.nodes)
		b.Shl(6, 6, 3)
		b.Li(7, nodeBase)
		b.Add(6, 6, 7)
		b.RmwAdd(7, 6, 0, 2)
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "loop")
		emitBarrier(b, int64(p.Threads))
		publishResult(b, 3)
		b.Halt()
		progs[t] = b.MustBuild()
	}
	total := uint64(iters) * uint64(p.Threads)
	nodes := c.nodes
	return &program.Workload{
		Name:     name,
		Programs: progs,
		Check: func(mem program.MemReader) error {
			var sum uint64
			for i := int64(0); i < nodes; i++ {
				sum += mem.ReadWord(uint64(nodeBase + i*8))
			}
			if sum != total {
				return fmt.Errorf("node weight sum = %d, want %d (RMW atomicity violated)", sum, total)
			}
			return checkResults(p.Threads, uint64(iters))(mem)
		},
	}
}

// ---- Archetype: hot work-queue operations (intruder) ----
// Threads check a queue's bounds (plain loads, creating Shared copies
// everywhere) and then pop/push with fetch-adds on the head/tail
// counters. Under MESI every fetch-add pays an invalidation round over
// all the reader copies; TSO-CC's GetX to Shared lines is granted
// immediately (§5's second explanation for outperforming MESI, and the
// RMW latencies of Figure 8).

type hotQueueCfg struct {
	iters     int64
	queues    int64 // distinct queues (head+tail counter pairs)
	slots     int64 // shared slot array words
	thinkNops int64
}

func hotQueue(name string, p Params, c hotQueueCfg) *program.Workload {
	counterBase := int64(dataBase + 0x0040_0000) // queue q: head at +q*128, tail at +q*128+64
	progs := make([]*program.Program, max(p.Threads, 0))
	iters := p.scale(c.iters)
	for t := 0; t < p.Threads; t++ {
		b := program.NewBuilder(fmt.Sprintf("%s-t%d", name, t))
		b.Li(3, 0)
		b.Li(4, iters)
		b.Li(5, int64(p.Seed)+int64(t+1)*52361)
		b.Li(13, 1) // constant operand for fetch-adds
		b.Label("loop")
		// Pick a queue and locate its counters.
		emitLCG(b, 5, 6, 7, c.queues)
		b.Shl(6, 6, 7) // q * 128
		b.Li(7, counterBase)
		b.Add(6, 6, 7) // r6 = &head
		// Bounds check: plain loads of head and tail (spreads Shared
		// copies of both counter lines across all cores).
		b.Ld(7, 6, 0)  // head
		b.Ld(8, 6, 64) // tail
		// Pop: fetch-add the head counter.
		b.RmwAdd(7, 6, 0, 13)
		// Process the claimed slot: a shared-array write.
		b.Mod(8, 7, c.slots)
		b.Shl(8, 8, 3)
		b.Li(9, dataBase)
		b.Add(8, 8, 9)
		b.St(8, 0, 7)
		// Push: fetch-add the tail counter.
		b.RmwAdd(8, 6, 64, 13)
		if c.thinkNops > 0 {
			b.Nop(c.thinkNops)
		}
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "loop")
		emitBarrier(b, int64(p.Threads))
		publishResult(b, 3)
		b.Halt()
		progs[t] = b.MustBuild()
	}
	total := uint64(iters) * uint64(p.Threads)
	queues := c.queues
	return &program.Workload{
		Name:     name,
		Programs: progs,
		Check: func(mem program.MemReader) error {
			var heads, tails uint64
			for q := int64(0); q < queues; q++ {
				heads += mem.ReadWord(uint64(counterBase + q*128))
				tails += mem.ReadWord(uint64(counterBase + q*128 + 64))
			}
			if heads != total || tails != total {
				return fmt.Errorf("queue counters head=%d tail=%d, want %d (RMW atomicity violated)",
					heads, tails, total)
			}
			return checkResults(p.Threads, uint64(iters))(mem)
		},
	}
}
