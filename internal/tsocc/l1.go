package tsocc

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// L1 line states (invalid way = Invalid).
const (
	stateS = iota + 1 // Shared: stale-tolerated, bounded hits, self-invalidated
	stateR            // SharedRO: eagerly invalidated on (rare) writes
	stateE            // Exclusive, clean
	stateM            // Modified
)

type l1Line struct {
	state  int
	acnt   uint32 // accesses since last L2 fill (b.acnt)
	ts     uint32 // last-written timestamp (b.ts)
	tsOwn  bool   // ts was assigned by this core's own writes
	listed bool   // way sits in the L1's shared-way sweep index
}

type readTx struct {
	addr     uint64
	wordAddr uint64
	cb       func(uint64)
	issued   sim.Cycle
	squashed bool
}

type writeTx struct {
	addr     uint64
	wordAddr uint64
	isRMW    bool
	val      uint64
	f        func(old uint64) (uint64, bool)
	storeCb  func()
	rmwCb    func(uint64)
	issued   sim.Cycle
}

type evictEntry struct {
	data        []byte
	dirty       bool
	ts          uint32
	tsOwn       bool
	transferred bool
}

// L1 is one core's TSO-CC private cache controller.
type L1 struct {
	id     coherence.NodeID
	cores  int
	cfg    config.TSOCC
	cache  *memsys.Cache[l1Line]
	net    coherence.Network
	pool   *coherence.MsgPool
	hitLat sim.Cycle

	timers coherence.Timers
	inbox  []*coherence.Msg
	waker  sim.Waker

	// rd/wr point at rdBuf/wrBuf when active: the L1 serves one read and
	// one write transaction at a time, so the transaction records are
	// preallocated scratch, not per-miss allocations.
	rd        *readTx
	wr        *writeTx
	rdBuf     readTx
	wrBuf     writeTx
	evict     map[uint64]*evictEntry
	evictFree []*evictEntry

	// sharedWays indexes the ways that entered Shared since the last
	// self-invalidation sweep (every transition into stateS appends the
	// way once, guarded by Meta.listed). Sweeps walk this list instead
	// of the whole array — self-invalidation on a potential acquire is
	// the protocol's most frequent array operation, and at large cache
	// geometries a full ForEachValid walk dominated 64-core profiles.
	// Invalidate/Install zero Meta (clearing listed), so a recycled way
	// can re-appear in the list; the sweep's listed check makes the
	// duplicate a no-op. Way pointers are stable: cache chunks allocate
	// once and never move. Invariant: a stateS line is always listed —
	// an empty list proves the cache holds no Shared line.
	sharedWays []*memsys.Way[l1Line]

	// Timestamp source (§3.3): a core-local counter incremented every
	// write-group, plus the reset epoch.
	tsSrc   uint32
	wgCount uint32
	epoch   uint8

	// Last-seen timestamp tables and epoch tables (Table 1).
	tsL1    lastSeen // per writer L1
	epochL1 []uint8
	tsL2    lastSeen // per L2 tile (SharedRO timestamps)
	epochL2 []uint8

	// hooks are the fault, oracle and metrics attachment points; every
	// field is nil in a nominal run.
	hooks coherence.Hooks

	Stats coherence.L1Stats
}

// SetHooks implements coherence.Controller.
func (l *L1) SetHooks(h coherence.Hooks) { l.hooks = h }

// trans reports a line-state transition to the legality oracle;
// self-loops are dropped here so call sites stay simple.
func (l *L1) trans(addr uint64, from, to int) {
	if l.hooks.Transition != nil && from != to {
		l.hooks.Transition(addr, from, to)
	}
}

// NewL1 builds core `core`'s TSO-CC L1.
func NewL1(core, cores int, sys config.System, cfg config.TSOCC, net coherence.Network) *L1 {
	return &L1{
		id:      coherence.L1ID(core),
		cores:   cores,
		cfg:     cfg,
		cache:   memsys.NewCache[l1Line](sys.L1Size, sys.L1Ways),
		net:     net,
		pool:    net.MsgPoolFor(core),
		hitLat:  sys.L1HitLat,
		evict:   make(map[uint64]*evictEntry),
		tsSrc:   tsFirst,
		tsL1:    newLastSeen(cfg.TSTableEntries, cores),
		epochL1: make([]uint8, cores),
		tsL2:    newLastSeen(cfg.TSTableEntries, cores),
		epochL2: make([]uint8, cores),
	}
}

func (l *L1) home(addr uint64) coherence.NodeID {
	return coherence.L2ID(int(addr>>coherence.BlockShift)%l.cores, l.cores)
}

// send stamps a pooled copy of tmpl (payload taken from data, not
// tmpl.Data) and injects it into the mesh.
func (l *L1) send(now sim.Cycle, tmpl coherence.Msg, data []byte) {
	m := l.pool.NewFrom(tmpl, data)
	m.Src = l.id
	l.net.Send(now, m)
}

// newEvict builds an eviction-buffer entry from the free list.
func (l *L1) newEvict(data []byte, dirty bool, ts uint32, tsOwn bool) *evictEntry {
	var e *evictEntry
	if n := len(l.evictFree); n > 0 {
		e = l.evictFree[n-1]
		l.evictFree = l.evictFree[:n-1]
	} else {
		e = &evictEntry{}
	}
	e.data = append(e.data[:0], data...)
	e.dirty, e.ts, e.tsOwn, e.transferred = dirty, ts, tsOwn, false
	return e
}

// BindWaker implements sim.WakeSink: stored for inbox deliveries and
// forwarded to the timer heap, so any work landing on this L1 from
// outside its own Tick (a mesh delivery, a hit latency scheduled during
// the core's tick) marks it due.
func (l *L1) BindWaker(w sim.Waker) {
	l.waker = w
	l.timers.SetWaker(w)
}

// Deliver implements mesh.Endpoint.
func (l *L1) Deliver(now sim.Cycle, m *coherence.Msg) {
	l.inbox = append(l.inbox, m)
	l.waker.Wake()
}

// Busy implements coherence.Controller.
func (l *L1) Busy() bool {
	return l.rd != nil || l.wr != nil || len(l.evict) > 0 || l.timers.Pending() > 0 || len(l.inbox) > 0
}

// ComponentLabel implements sim.Labeled (forensic reports).
func (l *L1) ComponentLabel() string { return fmt.Sprintf("tsocc L1 %d", l.id) }

// Debug renders in-flight transaction state (deadlock diagnostics).
func (l *L1) Debug() string {
	s := fmt.Sprintf("L1 %d:", l.id)
	if l.rd != nil {
		s += fmt.Sprintf(" rd=%#x(squash=%v)", l.rd.addr, l.rd.squashed)
	}
	if l.wr != nil {
		s += fmt.Sprintf(" wr=%#x(rmw=%v issued=%d)", l.wr.addr, l.wr.isRMW, l.wr.issued)
	}
	for a, e := range l.evict {
		s += fmt.Sprintf(" evict=%#x(dirty=%v xfer=%v)", a, e.dirty, e.transferred)
	}
	s += fmt.Sprintf(" timers=%d%v inbox=%d", l.timers.Pending(), l.timers.DueCycles(), len(l.inbox))
	return s
}

// NextWake implements sim.WakeHinter: the earliest due timer, or next
// cycle if messages are queued. Outstanding transactions need no wake of
// their own — they advance only when a message or timer fires.
func (l *L1) NextWake(now sim.Cycle) sim.Cycle {
	if len(l.inbox) > 0 {
		return now + 1
	}
	if due, ok := l.timers.NextDue(); ok {
		return due
	}
	return sim.WakeNever
}

// Tick implements sim.Ticker.
func (l *L1) Tick(now sim.Cycle) {
	l.timers.Tick(now)
	if len(l.inbox) == 0 {
		return
	}
	msgs := l.inbox
	l.inbox = l.inbox[:0]
	for _, m := range msgs {
		l.handle(now, m)
		l.pool.Put(m) // L1 handlers never retain a delivered message
	}
}

// L1Stats implements coherence.L1Like.
func (l *L1) L1Stats() *coherence.L1Stats { return &l.Stats }

// SnoopBlock implements coherence.Controller.
func (l *L1) SnoopBlock(addr uint64) ([]byte, bool) {
	if w := l.cache.Peek(addr); w != nil && (w.Meta.state == stateE || w.Meta.state == stateM) {
		return w.Data[:], true
	}
	return nil, false
}

// ---- Timestamp source ----

// assignTS returns the timestamp for a write and advances the write-group
// counter, triggering a timestamp reset broadcast on wrap (§3.5).
func (l *L1) assignTS(now sim.Cycle) uint32 {
	if !l.cfg.Timestamps() {
		return tsInvalid
	}
	if l.hooks.ResetFault != nil && l.hooks.ResetFault() {
		// Reset-storm fault: roll the timestamp space over as if TSMax
		// were reached; the write below takes the first timestamp of
		// the new epoch, exactly like a write straddling a real wrap.
		l.wgCount = 0
		l.resetTS(now)
	}
	ts := l.tsSrc
	l.wgCount++
	if l.wgCount >= l.cfg.WriteGroupSize() {
		l.wgCount = 0
		if l.tsSrc >= l.cfg.TSMax() {
			l.resetTS(now)
		} else {
			l.tsSrc++
		}
	}
	return ts
}

func (l *L1) resetTS(now sim.Cycle) {
	l.Stats.TimestampResets.Inc()
	l.epoch = (l.epoch + 1) & uint8((1<<uint(l.cfg.EpochBits))-1)
	l.tsSrc = tsFirst
	for c := 0; c < l.cores; c++ {
		if coherence.L1ID(c) != l.id {
			l.send(now, coherence.Msg{Type: coherence.MsgTSResetL1,
				Dst: coherence.L1ID(c), Epoch: l.epoch}, nil)
		}
		l.send(now, coherence.Msg{Type: coherence.MsgTSResetL1,
			Dst: coherence.L2ID(c, l.cores), Epoch: l.epoch}, nil)
	}
}

// sendableTS converts a line's stored timestamp into the (ts, valid)
// pair safe to put on the wire: timestamps ahead of the current source
// are from a previous epoch and are reported as the smallest valid
// timestamp, forcing conservative self-invalidation at the receiver.
func (l *L1) sendableTS(w *l1Line) (uint32, bool) {
	if !w.tsOwn || w.ts == tsInvalid || !l.cfg.Timestamps() {
		return tsInvalid, false
	}
	if w.ts > l.tsSrc {
		return tsSmallest, true
	}
	return w.ts, true
}

// ---- CorePort ----

// Load implements coherence.CorePort.
func (l *L1) Load(now sim.Cycle, addr uint64, cb func(uint64)) bool {
	blk := coherence.BlockAddr(addr)
	if l.rd != nil {
		return false
	}
	if l.wr != nil && l.wr.addr == blk {
		return false
	}
	if w := l.cache.Lookup(addr); w != nil {
		if l.hooks.EvictFault != nil && l.hooks.EvictFault() {
			// Evict fault: run the normal eviction path (silent for
			// S/R, PutE/PutM for E/M) and take the miss below.
			l.evictLine(now, w)
		} else {
			switch w.Meta.state {
			case stateE, stateM:
				l.Stats.ReadHitPrivate.Inc()
				l.timers.AtVal(now+l.hitLat, cb, memsys.GetWord(w.Data[:], addr))
				return true
			case stateR:
				l.Stats.ReadHitSRO.Inc()
				l.timers.AtVal(now+l.hitLat, cb, memsys.GetWord(w.Data[:], addr))
				return true
			case stateS:
				if w.Meta.acnt < l.cfg.MaxAccesses() {
					// Bounded Shared hit: stale data is permitted until
					// the access budget forces a re-request (write
					// propagation, §3.1).
					w.Meta.acnt++
					l.Stats.ReadHitShared.Inc()
					l.timers.AtVal(now+l.hitLat, cb, memsys.GetWord(w.Data[:], addr))
					return true
				}
				l.Stats.ReadMissShared.Inc()
				l.rdBuf = readTx{addr: blk, wordAddr: addr, cb: cb, issued: now}
				l.rd = &l.rdBuf
				l.send(now, coherence.Msg{Type: coherence.MsgGetS, Dst: l.home(addr), Addr: blk, Requestor: l.id}, nil)
				return true
			}
		}
	}
	l.Stats.ReadMissInvalid.Inc()
	l.rdBuf = readTx{addr: blk, wordAddr: addr, cb: cb, issued: now}
	l.rd = &l.rdBuf
	l.send(now, coherence.Msg{Type: coherence.MsgGetS, Dst: l.home(addr), Addr: blk, Requestor: l.id}, nil)
	return true
}

// Store implements coherence.CorePort.
func (l *L1) Store(now sim.Cycle, addr uint64, val uint64, cb func()) bool {
	blk := coherence.BlockAddr(addr)
	if l.wr != nil {
		return false
	}
	if l.rd != nil && l.rd.addr == blk {
		return false
	}
	if w := l.cache.Lookup(addr); w != nil && (w.Meta.state == stateE || w.Meta.state == stateM) {
		if l.hooks.EvictFault != nil && l.hooks.EvictFault() {
			l.evictLine(now, w) // fall through to the write miss below
		} else {
			l.trans(blk, w.Meta.state, stateM)
			w.Meta.state = stateM
			memsys.PutWord(w.Data[:], addr, val)
			w.Meta.ts = l.assignTS(now)
			w.Meta.tsOwn = true
			l.Stats.WriteHitPrivate.Inc()
			l.timers.AtDone(now+1, cb)
			return true
		}
	}
	l.countWriteMiss(blk)
	l.wrBuf = writeTx{addr: blk, wordAddr: addr, val: val, storeCb: cb, issued: now}
	l.wr = &l.wrBuf
	l.send(now, coherence.Msg{Type: coherence.MsgGetX, Dst: l.home(addr), Addr: blk, Requestor: l.id}, nil)
	return true
}

// RMW implements coherence.CorePort.
func (l *L1) RMW(now sim.Cycle, addr uint64, f func(uint64) (uint64, bool), cb func(uint64)) bool {
	blk := coherence.BlockAddr(addr)
	if l.wr != nil {
		return false
	}
	if l.rd != nil && l.rd.addr == blk {
		return false
	}
	if w := l.cache.Lookup(addr); w != nil && (w.Meta.state == stateE || w.Meta.state == stateM) {
		if l.hooks.EvictFault != nil && l.hooks.EvictFault() {
			l.evictLine(now, w) // fall through to the write miss below
		} else {
			old := memsys.GetWord(w.Data[:], addr)
			if nv, doWrite := f(old); doWrite {
				memsys.PutWord(w.Data[:], addr, nv)
				l.trans(blk, w.Meta.state, stateM)
				w.Meta.state = stateM
				w.Meta.ts = l.assignTS(now)
				w.Meta.tsOwn = true
			}
			l.Stats.WriteHitPrivate.Inc()
			l.Stats.RMWLat.Observe(int64(l.hitLat))
			l.timers.AtVal(now+l.hitLat, cb, old)
			return true
		}
	}
	l.countWriteMiss(blk)
	l.wrBuf = writeTx{addr: blk, wordAddr: addr, isRMW: true, f: f, rmwCb: cb, issued: now}
	l.wr = &l.wrBuf
	l.send(now, coherence.Msg{Type: coherence.MsgGetX, Dst: l.home(addr), Addr: blk, Requestor: l.id}, nil)
	return true
}

func (l *L1) countWriteMiss(blk uint64) {
	w := l.cache.Peek(blk)
	switch {
	case w == nil:
		l.Stats.WriteMissInvalid.Inc()
	case w.Meta.state == stateS:
		l.Stats.WriteMissShared.Inc()
	case w.Meta.state == stateR:
		l.Stats.WriteMissSRO.Inc()
	default:
		l.Stats.WriteMissInvalid.Inc()
	}
}

// Fence implements coherence.CorePort: fences unconditionally
// self-invalidate Shared lines (§3.6).
func (l *L1) Fence(now sim.Cycle, cb func()) bool {
	l.selfInvalidate(coherence.CauseFence)
	l.timers.AtDone(now+1, cb)
	return true
}

// noteShared records w's transition into Shared in the sweep index.
func (l *L1) noteShared(w *memsys.Way[l1Line]) {
	if !w.Meta.listed {
		w.Meta.listed = true
		l.sharedWays = append(l.sharedWays, w)
	}
}

// selfInvalidate drops every Shared line (SharedRO, Exclusive and
// Modified lines survive). The walk covers only the shared-way index:
// listed ways that since left stateS (written, recycled, downgraded)
// are skipped, and an empty index proves the sweep would drop nothing.
func (l *L1) selfInvalidate(cause coherence.SelfInvCause) {
	l.Stats.SelfInvEvents[cause].Inc()
	if len(l.sharedWays) == 0 {
		return
	}
	var dropped int64
	for _, w := range l.sharedWays {
		if w.Meta.listed && w.Valid && w.Meta.state == stateS {
			l.trans(w.Tag, stateS, 0)
			l.cache.Invalidate(w)
			dropped++
		}
		w.Meta.listed = false
	}
	l.sharedWays = l.sharedWays[:0]
	l.Stats.SelfInvLines.Add(dropped)
}

// maybeSelfInvalidate applies the potential-acquire detection rules
// (§3.1 basic; §3.3 transitive reduction; §3.4 SharedRO; §3.5 epochs)
// to an incoming data response.
func (l *L1) maybeSelfInvalidate(m *coherence.Msg, sro bool) {
	l.Stats.DataResponses.Inc()
	if !sro {
		if m.Owner == l.id {
			return // last writer is this core: no invalidation needed
		}
		if !l.cfg.Timestamps() {
			// Basic protocol: every remote data response is treated as
			// a potential acquire.
			l.selfInvalidate(coherence.CauseInvalidTS)
			return
		}
		writer := int(m.Owner)
		if writer < 0 || writer >= l.cores {
			l.selfInvalidate(coherence.CauseInvalidTS)
			return
		}
		if m.Epoch != l.epochL1[writer] {
			// Missed or raced a timestamp reset: same action as the
			// reset message (§3.5 epoch-ids), then re-evaluate.
			l.tsL1.drop(writer)
			l.epochL1[writer] = m.Epoch
		}
		if !m.TSValid || m.TS == tsInvalid || m.TS == tsSmallest {
			l.selfInvalidate(coherence.CauseInvalidTS)
			return
		}
		last, ok := l.tsL1.get(writer)
		l.tsL1.update(writer, m.TS)
		if !ok {
			// Never read from this writer (or entry lost to a reset).
			l.selfInvalidate(coherence.CauseInvalidTS)
			return
		}
		acquire := m.TS > last || (l.cfg.WriteGroupBits > 0 && m.TS == last)
		if acquire {
			l.selfInvalidate(coherence.CauseAcquireNonSRO)
		}
		return
	}

	// SharedRO response: timestamps come from the L2 tile (§3.4).
	if !l.cfg.Timestamps() {
		l.selfInvalidate(coherence.CauseInvalidTS)
		return
	}
	tile := coherence.Router(m.Src, l.cores)
	if m.Epoch != l.epochL2[tile] {
		l.tsL2.drop(tile)
		l.epochL2[tile] = m.Epoch
	}
	if !m.TSValid || m.TS <= tsSmallest {
		l.selfInvalidate(coherence.CauseInvalidTS)
		return
	}
	last, ok := l.tsL2.get(tile)
	l.tsL2.update(tile, m.TS)
	if !ok {
		l.selfInvalidate(coherence.CauseInvalidTS)
		return
	}
	if m.TS > last {
		l.selfInvalidate(coherence.CauseAcquireSRO)
	}
}

// ---- Message handling ----

func (l *L1) handle(now sim.Cycle, m *coherence.Msg) {
	switch m.Type {
	case coherence.MsgDataE:
		if l.wr != nil && l.wr.addr == m.Addr {
			l.maybeSelfInvalidate(m, false)
			l.completeWrite(now, m)
			return
		}
		l.maybeSelfInvalidate(m, false)
		l.completeRead(now, m, stateE)
		l.send(now, coherence.Msg{Type: coherence.MsgAck, Dst: l.home(m.Addr), Addr: m.Addr}, nil)

	case coherence.MsgDataS:
		l.maybeSelfInvalidate(m, false)
		l.completeRead(now, m, stateS)

	case coherence.MsgDataOwner:
		if l.wr != nil && l.wr.addr == m.Addr {
			l.maybeSelfInvalidate(m, false)
			l.completeWrite(now, m)
			return
		}
		l.maybeSelfInvalidate(m, false)
		l.completeRead(now, m, stateS)

	case coherence.MsgDataSRO:
		l.maybeSelfInvalidate(m, true)
		l.completeRead(now, m, stateR)

	case coherence.MsgFwdGetS:
		l.handleFwdGetS(now, m)

	case coherence.MsgFwdGetX:
		l.handleFwdGetX(now, m)

	case coherence.MsgInv:
		l.handleInv(now, m)

	case coherence.MsgPutAck:
		if e, ok := l.evict[m.Addr]; ok {
			delete(l.evict, m.Addr)
			l.evictFree = append(l.evictFree, e)
		}

	case coherence.MsgTSResetL1:
		src := int(m.Src)
		l.tsL1.drop(src)
		l.epochL1[src] = m.Epoch

	case coherence.MsgTSResetL2:
		tile := coherence.Router(m.Src, l.cores)
		l.tsL2.drop(tile)
		l.epochL2[tile] = m.Epoch

	default:
		panic(fmt.Sprintf("tsocc: L1 %d cycle %d: unexpected message %s", l.id, now, m))
	}
}

func (l *L1) completeWrite(now sim.Cycle, m *coherence.Msg) {
	tx := l.wr
	w, from := l.install(now, tx.addr, m.Data)
	l.trans(tx.addr, from, stateM)
	w.Meta.state = stateM
	old := memsys.GetWord(w.Data[:], tx.wordAddr)
	wrote := true
	if tx.isRMW {
		nv, doWrite := tx.f(old)
		if doWrite {
			memsys.PutWord(w.Data[:], tx.wordAddr, nv)
		}
		wrote = doWrite
		l.Stats.RMWLat.Observe(int64(now - tx.issued))
	} else {
		memsys.PutWord(w.Data[:], tx.wordAddr, tx.val)
	}
	ackTS := tsInvalid
	if wrote {
		ackTS = l.assignTS(now)
		w.Meta.ts = ackTS
		w.Meta.tsOwn = true
	}
	// Finalize with the L2 (it stays busy until this ack, serializing
	// writers and carrying the new write's timestamp, §3.2).
	l.send(now, coherence.Msg{Type: coherence.MsgAck, Dst: l.home(tx.addr), Addr: tx.addr,
		TS: ackTS, TSValid: wrote && l.cfg.Timestamps(), Epoch: l.epoch}, nil)
	if l.hooks.MissLatency != nil {
		l.hooks.MissLatency(false, now-tx.issued)
	}
	l.wr = nil
	if tx.isRMW {
		tx.rmwCb(old)
	} else {
		tx.storeCb()
	}
}

func (l *L1) completeRead(now sim.Cycle, m *coherence.Msg, state int) {
	tx := l.rd
	if tx == nil || tx.addr != m.Addr {
		panic(fmt.Sprintf("tsocc: L1 %d cycle %d: data response without read tx %s", l.id, now, m))
	}
	val := memsys.GetWord(m.Data, tx.wordAddr)
	// Only owner-forwarded data can be overtaken by a later L2
	// invalidation; the L2's own responses are FIFO-fresh.
	install := !tx.squashed || m.Type != coherence.MsgDataOwner
	if state == stateS && l.cfg.MaxAccesses() == 0 {
		// CC-shared-to-L2: Shared data is never cached locally.
		install = false
	}
	if install {
		w, from := l.install(now, m.Addr, m.Data)
		l.trans(m.Addr, from, state)
		w.Meta.state = state
		w.Meta.acnt = 0
		w.Meta.ts = m.TS
		w.Meta.tsOwn = false
		if state == stateS {
			l.noteShared(w)
		}
	} else if w := l.cache.Peek(m.Addr); w != nil && w.Meta.state == stateS {
		// Not re-installing (always-miss mode) but a stale Shared copy
		// exists from before: refresh it rather than leaving it stale.
		copy(w.Data[:], m.Data)
		w.Meta.acnt = 0
	}
	if l.hooks.MissLatency != nil {
		l.hooks.MissLatency(true, now-tx.issued)
	}
	l.rd = nil
	tx.cb(val)
}

// install places data for addr, returning the way and the state the
// line held before this fill (0 for a fresh install) so callers can
// report the transition once they assign the new state.
func (l *L1) install(now sim.Cycle, addr uint64, data []byte) (*memsys.Way[l1Line], int) {
	if w := l.cache.Peek(addr); w != nil {
		copy(w.Data[:], data)
		w.Meta.acnt = 0
		return w, w.Meta.state
	}
	w := l.cache.Victim(addr)
	if w == nil {
		panic(fmt.Sprintf("tsocc: L1 %d cycle %d: no victim for %#x", l.id, now, addr))
	}
	if w.Valid {
		l.evictLine(now, w)
	}
	l.cache.Install(w, addr)
	copy(w.Data[:], data)
	return w, 0
}

func (l *L1) evictLine(now sim.Cycle, w *memsys.Way[l1Line]) {
	addr := w.Tag
	l.trans(addr, w.Meta.state, 0)
	switch w.Meta.state {
	case stateS, stateR:
		// Shared and SharedRO evictions are silent (§3.2, §3.4).
	case stateE:
		l.evict[addr] = l.newEvict(w.Data[:], false, w.Meta.ts, w.Meta.tsOwn)
		l.send(now, coherence.Msg{Type: coherence.MsgPutE, Dst: l.home(addr), Addr: addr}, nil)
	case stateM:
		ts, valid := l.sendableTS(&w.Meta)
		l.evict[addr] = l.newEvict(w.Data[:], true, w.Meta.ts, w.Meta.tsOwn)
		l.send(now, coherence.Msg{Type: coherence.MsgPutM, Dst: l.home(addr), Addr: addr,
			Dirty: true, TS: ts, TSValid: valid, Epoch: l.epoch}, w.Data[:])
	}
	l.cache.Invalidate(w)
}

func (l *L1) handleFwdGetS(now sim.Cycle, m *coherence.Msg) {
	if w := l.cache.Peek(m.Addr); w != nil && (w.Meta.state == stateE || w.Meta.state == stateM) {
		dirty := w.Meta.state == stateM
		ts, valid := l.sendableTS(&w.Meta)
		l.send(now, coherence.Msg{Type: coherence.MsgDataOwner, Dst: m.Requestor, Addr: m.Addr,
			Owner: l.id, TS: ts, TSValid: valid, Epoch: l.epoch, Dirty: dirty}, w.Data[:])
		l.send(now, coherence.Msg{Type: coherence.MsgWBData, Dst: l.home(m.Addr), Addr: m.Addr,
			Dirty: dirty, TS: ts, TSValid: valid, Epoch: l.epoch}, w.Data[:])
		// Downgrade to Shared, keeping the copy with a fresh budget.
		l.trans(m.Addr, w.Meta.state, stateS)
		w.Meta.state = stateS
		w.Meta.acnt = 0
		l.noteShared(w)
		if l.cfg.MaxAccesses() == 0 {
			l.trans(m.Addr, stateS, 0)
			l.cache.Invalidate(w)
		}
		return
	}
	if e, ok := l.evict[m.Addr]; ok {
		e.transferred = true
		meta := l1Line{ts: e.ts, tsOwn: e.tsOwn}
		ts, valid := l.sendableTS(&meta)
		l.send(now, coherence.Msg{Type: coherence.MsgDataOwner, Dst: m.Requestor, Addr: m.Addr,
			Owner: l.id, TS: ts, TSValid: valid, Epoch: l.epoch, Dirty: e.dirty}, e.data)
		l.send(now, coherence.Msg{Type: coherence.MsgWBData, Dst: l.home(m.Addr), Addr: m.Addr,
			Dirty: e.dirty, TS: ts, TSValid: valid, Epoch: l.epoch, NoCopy: true}, e.data)
		return
	}
	panic(fmt.Sprintf("tsocc: L1 %d cycle %d: FwdGetS for absent line %s", l.id, now, m))
}

func (l *L1) handleFwdGetX(now sim.Cycle, m *coherence.Msg) {
	if w := l.cache.Peek(m.Addr); w != nil && (w.Meta.state == stateE || w.Meta.state == stateM) {
		ts, valid := l.sendableTS(&w.Meta)
		l.send(now, coherence.Msg{Type: coherence.MsgDataOwner, Dst: m.Requestor, Addr: m.Addr,
			Owner: l.id, TS: ts, TSValid: valid, Epoch: l.epoch,
			Dirty: w.Meta.state == stateM}, w.Data[:])
		l.trans(m.Addr, w.Meta.state, 0)
		l.cache.Invalidate(w)
		return
	}
	if e, ok := l.evict[m.Addr]; ok {
		e.transferred = true
		meta := l1Line{ts: e.ts, tsOwn: e.tsOwn}
		ts, valid := l.sendableTS(&meta)
		l.send(now, coherence.Msg{Type: coherence.MsgDataOwner, Dst: m.Requestor, Addr: m.Addr,
			Owner: l.id, TS: ts, TSValid: valid, Epoch: l.epoch, Dirty: e.dirty}, e.data)
		return
	}
	panic(fmt.Sprintf("tsocc: L1 %d cycle %d: FwdGetX for absent line %s", l.id, now, m))
}

func (l *L1) handleInv(now sim.Cycle, m *coherence.Msg) {
	l.Stats.InvalidationsReceived.Inc()
	if l.rd != nil && l.rd.addr == m.Addr {
		l.rd.squashed = true
	}
	if w := l.cache.Peek(m.Addr); w != nil {
		if w.Meta.state == stateE || w.Meta.state == stateM {
			// Directory recall (L2 eviction of an Exclusive line).
			ts, valid := l.sendableTS(&w.Meta)
			l.send(now, coherence.Msg{Type: coherence.MsgWBData, Dst: m.Src, Addr: m.Addr,
				Dirty: w.Meta.state == stateM,
				TS:    ts, TSValid: valid, Epoch: l.epoch}, w.Data[:])
			l.trans(m.Addr, w.Meta.state, 0)
			l.cache.Invalidate(w)
			return
		}
		// SharedRO broadcast invalidation (or a stale Shared copy).
		l.trans(m.Addr, w.Meta.state, 0)
		l.cache.Invalidate(w)
		l.send(now, coherence.Msg{Type: coherence.MsgInvAck, Dst: m.Src, Addr: m.Addr}, nil)
		return
	}
	if e, ok := l.evict[m.Addr]; ok {
		e.transferred = true
		meta := l1Line{ts: e.ts, tsOwn: e.tsOwn}
		ts, valid := l.sendableTS(&meta)
		l.send(now, coherence.Msg{Type: coherence.MsgWBData, Dst: m.Src, Addr: m.Addr,
			Dirty: e.dirty, TS: ts, TSValid: valid, Epoch: l.epoch}, e.data)
		return
	}
	l.send(now, coherence.Msg{Type: coherence.MsgInvAck, Dst: m.Src, Addr: m.Addr}, nil)
}

// PrewarmStorage implements coherence.Controller.
func (l *L1) PrewarmStorage() { l.cache.Prewarm() }
