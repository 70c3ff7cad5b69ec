// Package mesi implements the paper's baseline: a full-map MESI directory
// protocol. Each private L1 holds lines in Invalid/Shared/Exclusive/
// Modified; the NUCA L2 tiles keep an inclusive directory with a full
// sharing vector, eagerly invalidating sharers on writes. Transient
// races are serialized with a blocking directory (see DESIGN.md §6).
package mesi

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// L1 line states.
const (
	stateS = iota + 1
	stateE
	stateM
)

type l1Line struct {
	state int
}

type readTx struct {
	addr     uint64 // block address
	wordAddr uint64
	cb       func(uint64)
	issued   sim.Cycle
	squashed bool
}

type writeTx struct {
	addr     uint64
	wordAddr uint64
	isRMW    bool
	val      uint64 // plain store value
	f        func(old uint64) (uint64, bool)
	storeCb  func()
	rmwCb    func(uint64)
	issued   sim.Cycle
	upgrade  bool // line was Shared locally when requested
}

// L1 is one core's private cache controller.
type L1 struct {
	id     coherence.NodeID
	cores  int
	cache  *memsys.Cache[l1Line]
	net    coherence.Network
	pool   *coherence.MsgPool
	hitLat sim.Cycle

	timers coherence.Timers
	inbox  []*coherence.Msg
	waker  sim.Waker

	// rd/wr point at rdBuf/wrBuf when active: one read and one write
	// transaction at a time, so the records are preallocated scratch.
	rd    *readTx
	wr    *writeTx
	rdBuf readTx
	wrBuf writeTx

	evict     map[uint64]*evictEntry
	evictFree []*evictEntry

	// hooks are the fault, oracle and metrics attachment points; every
	// field is nil in a nominal run.
	hooks coherence.Hooks

	Stats coherence.L1Stats
}

// SetHooks implements coherence.Controller. MESI has no timestamps, so
// ResetFault is never read.
func (l *L1) SetHooks(h coherence.Hooks) { l.hooks = h }

// trans reports a line-state transition to the legality oracle;
// self-loops are dropped here so call sites stay simple.
func (l *L1) trans(addr uint64, from, to int) {
	if l.hooks.Transition != nil && from != to {
		l.hooks.Transition(addr, from, to)
	}
}

type evictEntry struct {
	data        []byte
	dirty       bool
	transferred bool // ownership passed to another core while in flight
}

// NewL1 builds the L1 controller for the given core.
func NewL1(core, cores int, sizeBytes, ways int, hitLat sim.Cycle, net coherence.Network) *L1 {
	return &L1{
		id:     coherence.L1ID(core),
		cores:  cores,
		cache:  memsys.NewCache[l1Line](sizeBytes, ways),
		net:    net,
		pool:   net.MsgPoolFor(core),
		hitLat: hitLat,
		evict:  make(map[uint64]*evictEntry),
	}
}

func (l *L1) home(addr uint64) coherence.NodeID {
	tile := int(addr>>coherence.BlockShift) % l.cores
	return coherence.L2ID(tile, l.cores)
}

// send stamps a pooled copy of tmpl (payload taken from data, not
// tmpl.Data) and injects it into the mesh.
func (l *L1) send(now sim.Cycle, tmpl coherence.Msg, data []byte) {
	m := l.pool.NewFrom(tmpl, data)
	m.Src = l.id
	l.net.Send(now, m)
}

// newEvict builds an eviction-buffer entry from the free list.
func (l *L1) newEvict(data []byte, dirty bool) *evictEntry {
	var e *evictEntry
	if n := len(l.evictFree); n > 0 {
		e = l.evictFree[n-1]
		l.evictFree = l.evictFree[:n-1]
	} else {
		e = &evictEntry{}
	}
	e.data = append(e.data[:0], data...)
	e.dirty, e.transferred = dirty, false
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

// Tick processes due timers and delivered messages.
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

// Busy reports whether any transaction is outstanding (completion check).
func (l *L1) Busy() bool {
	return l.rd != nil || l.wr != nil || len(l.evict) > 0 || l.timers.Pending() > 0 || len(l.inbox) > 0
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

// ---- CorePort ----

// Load implements coherence.CorePort.
func (l *L1) Load(now sim.Cycle, addr uint64, cb func(uint64)) bool {
	blk := coherence.BlockAddr(addr)
	if l.rd != nil {
		return false
	}
	if l.wr != nil && l.wr.addr == blk {
		return false // serialize same-block read/write transactions
	}
	if w := l.cache.Lookup(addr); w != nil {
		if l.hooks.EvictFault != nil && !w.Busy && l.hooks.EvictFault() {
			l.evictLine(now, w) // forced early self-eviction; take the miss path
		} else {
			if w.Meta.state == stateS {
				l.Stats.ReadHitShared.Inc()
			} else {
				l.Stats.ReadHitPrivate.Inc()
			}
			l.timers.AtVal(now+l.hitLat, cb, memsys.GetWord(w.Data[:], addr))
			return true
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
	if w := l.cache.Lookup(addr); w != nil && w.Meta.state != stateS {
		if l.hooks.EvictFault != nil && !w.Busy && l.hooks.EvictFault() {
			l.evictLine(now, w) // forced early self-eviction; take the miss path
		} else {
			l.trans(blk, w.Meta.state, stateM)
			w.Meta.state = stateM
			memsys.PutWord(w.Data[:], addr, val)
			l.Stats.WriteHitPrivate.Inc()
			l.timers.AtDone(now+1, cb)
			return true
		}
	}
	upgrade := false
	if w := l.cache.Peek(addr); w != nil && w.Meta.state == stateS {
		upgrade = true
		// Pin the Shared copy: a concurrent read's fill must not evict
		// it while the upgrade is in flight (a data-less UpgAck would
		// then have nothing to upgrade).
		w.Busy = true
		l.Stats.WriteMissShared.Inc()
	} else {
		l.Stats.WriteMissInvalid.Inc()
	}
	l.wrBuf = writeTx{addr: blk, wordAddr: addr, val: val, storeCb: cb, issued: now, upgrade: upgrade}
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
	if w := l.cache.Lookup(addr); w != nil && w.Meta.state != stateS {
		if l.hooks.EvictFault != nil && !w.Busy && l.hooks.EvictFault() {
			l.evictLine(now, w) // forced early self-eviction; take the miss path
		} else {
			old := memsys.GetWord(w.Data[:], addr)
			if nv, doWrite := f(old); doWrite {
				memsys.PutWord(w.Data[:], addr, nv)
				l.trans(blk, w.Meta.state, stateM)
				w.Meta.state = stateM
			}
			l.Stats.WriteHitPrivate.Inc()
			l.Stats.RMWLat.Observe(int64(l.hitLat))
			l.timers.AtVal(now+l.hitLat, cb, old)
			return true
		}
	}
	upgrade := false
	if w := l.cache.Peek(addr); w != nil && w.Meta.state == stateS {
		upgrade = true
		w.Busy = true
		l.Stats.WriteMissShared.Inc()
	} else {
		l.Stats.WriteMissInvalid.Inc()
	}
	l.wrBuf = writeTx{addr: blk, wordAddr: addr, isRMW: true, f: f, rmwCb: cb, issued: now, upgrade: upgrade}
	l.wr = &l.wrBuf
	l.send(now, coherence.Msg{Type: coherence.MsgGetX, Dst: l.home(addr), Addr: blk, Requestor: l.id}, nil)
	return true
}

// Fence implements coherence.CorePort. MESI is eagerly coherent; a fence
// needs no cache actions beyond the core's write-buffer drain.
func (l *L1) Fence(now sim.Cycle, cb func()) bool {
	l.timers.AtDone(now+1, cb)
	return true
}

// ---- Message handling ----

func (l *L1) handle(now sim.Cycle, m *coherence.Msg) {
	switch m.Type {
	case coherence.MsgDataE:
		l.Stats.DataResponses.Inc()
		if l.wr != nil && l.wr.addr == m.Addr {
			l.completeWrite(now, m.Data)
			l.send(now, coherence.Msg{Type: coherence.MsgAck, Dst: l.home(m.Addr), Addr: m.Addr}, nil)
			return
		}
		l.completeRead(now, m, stateE)
		l.send(now, coherence.Msg{Type: coherence.MsgAck, Dst: l.home(m.Addr), Addr: m.Addr}, nil)

	case coherence.MsgDataS:
		l.Stats.DataResponses.Inc()
		l.completeRead(now, m, stateS)

	case coherence.MsgDataOwner:
		l.Stats.DataResponses.Inc()
		if l.wr != nil && l.wr.addr == m.Addr {
			l.completeWrite(now, m.Data)
			l.send(now, coherence.Msg{Type: coherence.MsgAck, Dst: l.home(m.Addr), Addr: m.Addr}, nil)
			return
		}
		l.completeRead(now, m, stateS)

	case coherence.MsgUpgAck:
		if l.wr == nil || l.wr.addr != m.Addr {
			panic(fmt.Sprintf("mesi: L1 %d cycle %d: unexpected UpgAck %s", l.id, now, m))
		}
		w := l.cache.Peek(m.Addr)
		if w == nil || w.Meta.state != stateS {
			panic(fmt.Sprintf("mesi: L1 %d cycle %d: UpgAck without Shared line %s", l.id, now, m))
		}
		l.completeWrite(now, nil)
		l.send(now, coherence.Msg{Type: coherence.MsgAck, Dst: l.home(m.Addr), Addr: m.Addr}, nil)

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

	default:
		panic(fmt.Sprintf("mesi: L1 %d cycle %d: unexpected message %s", l.id, now, m))
	}
}

func (l *L1) completeWrite(now sim.Cycle, data []byte) {
	tx := l.wr
	w := l.cache.Peek(tx.addr)
	from := 0
	if w != nil {
		from = w.Meta.state
	}
	if data != nil {
		// Fresh data arrived; (re)install the line.
		w, from = l.install(now, tx.addr, data)
	}
	if w == nil {
		panic(fmt.Sprintf("mesi: L1 %d cycle %d: write completion without line %#x", l.id, now, tx.addr))
	}
	w.Busy = false
	l.trans(tx.addr, from, stateM)
	w.Meta.state = stateM
	old := memsys.GetWord(w.Data[:], tx.wordAddr)
	if tx.isRMW {
		if nv, doWrite := tx.f(old); doWrite {
			memsys.PutWord(w.Data[:], tx.wordAddr, nv)
		}
		l.Stats.RMWLat.Observe(int64(now - tx.issued))
	} else {
		memsys.PutWord(w.Data[:], tx.wordAddr, tx.val)
	}
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
		panic(fmt.Sprintf("mesi: L1 %d cycle %d: data response without read tx %s", l.id, now, m))
	}
	val := memsys.GetWord(m.Data, tx.wordAddr)
	// Responses sent by the L2 itself are FIFO-ordered after any Inv the
	// L2 issued, so they are always fresh; only owner-forwarded data can
	// be overtaken by a later invalidation (the squash case).
	if !tx.squashed || m.Type != coherence.MsgDataOwner {
		w, from := l.install(now, m.Addr, m.Data)
		l.trans(m.Addr, from, state)
		w.Meta.state = state
	}
	if l.hooks.MissLatency != nil {
		l.hooks.MissLatency(true, now-tx.issued)
	}
	l.rd = nil
	tx.cb(val)
}

// install places data for addr and returns the way plus the line's
// prior state (0 when freshly installed) for transition reporting.
func (l *L1) install(now sim.Cycle, addr uint64, data []byte) (*memsys.Way[l1Line], int) {
	if w := l.cache.Peek(addr); w != nil {
		copy(w.Data[:], data)
		return w, w.Meta.state
	}
	w := l.cache.Victim(addr)
	if w == nil {
		panic(fmt.Sprintf("mesi: L1 %d cycle %d: no victim for %#x", l.id, now, addr))
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
	case stateS:
		l.send(now, coherence.Msg{Type: coherence.MsgPutS, Dst: l.home(addr), Addr: addr}, nil)
	case stateE:
		l.evict[addr] = l.newEvict(w.Data[:], false)
		l.send(now, coherence.Msg{Type: coherence.MsgPutE, Dst: l.home(addr), Addr: addr}, nil)
	case stateM:
		l.evict[addr] = l.newEvict(w.Data[:], true)
		l.send(now, coherence.Msg{Type: coherence.MsgPutM, Dst: l.home(addr), Addr: addr,
			Dirty: true}, w.Data[:])
	}
	l.cache.Invalidate(w)
}

func (l *L1) handleFwdGetS(now sim.Cycle, m *coherence.Msg) {
	if w := l.cache.Peek(m.Addr); w != nil && w.Meta.state != stateS {
		dirty := w.Meta.state == stateM
		l.trans(m.Addr, w.Meta.state, stateS)
		w.Meta.state = stateS
		l.send(now, coherence.Msg{Type: coherence.MsgDataOwner, Dst: m.Requestor, Addr: m.Addr}, w.Data[:])
		l.send(now, coherence.Msg{Type: coherence.MsgWBData, Dst: l.home(m.Addr), Addr: m.Addr,
			Dirty: dirty}, w.Data[:])
		return
	}
	if e, ok := l.evict[m.Addr]; ok {
		e.transferred = true
		l.send(now, coherence.Msg{Type: coherence.MsgDataOwner, Dst: m.Requestor, Addr: m.Addr}, e.data)
		l.send(now, coherence.Msg{Type: coherence.MsgWBData, Dst: l.home(m.Addr), Addr: m.Addr,
			Dirty: e.dirty, NoCopy: true}, e.data)
		return
	}
	panic(fmt.Sprintf("mesi: L1 %d cycle %d: FwdGetS for absent line %s", l.id, now, m))
}

func (l *L1) handleFwdGetX(now sim.Cycle, m *coherence.Msg) {
	if w := l.cache.Peek(m.Addr); w != nil && w.Meta.state != stateS {
		l.send(now, coherence.Msg{Type: coherence.MsgDataOwner, Dst: m.Requestor, Addr: m.Addr,
			Dirty: w.Meta.state == stateM}, w.Data[:])
		l.trans(m.Addr, w.Meta.state, 0)
		l.cache.Invalidate(w)
		return
	}
	if e, ok := l.evict[m.Addr]; ok {
		e.transferred = true
		l.send(now, coherence.Msg{Type: coherence.MsgDataOwner, Dst: m.Requestor, Addr: m.Addr,
			Dirty: e.dirty}, e.data)
		return
	}
	panic(fmt.Sprintf("mesi: L1 %d cycle %d: FwdGetX for absent line %s", l.id, now, m))
}

func (l *L1) handleInv(now sim.Cycle, m *coherence.Msg) {
	l.Stats.InvalidationsReceived.Inc()
	if l.rd != nil && l.rd.addr == m.Addr {
		l.rd.squashed = true
	}
	if w := l.cache.Peek(m.Addr); w != nil {
		l.trans(m.Addr, w.Meta.state, 0)
		if w.Meta.state != stateS {
			// Directory recall of an exclusive line (L2 eviction).
			l.send(now, coherence.Msg{Type: coherence.MsgWBData, Dst: m.Src, Addr: m.Addr,
				Dirty: w.Meta.state == stateM}, w.Data[:])
			l.cache.Invalidate(w)
			return
		}
		l.cache.Invalidate(w)
		l.send(now, coherence.Msg{Type: coherence.MsgInvAck, Dst: m.Src, Addr: m.Addr}, nil)
		return
	}
	if e, ok := l.evict[m.Addr]; ok {
		e.transferred = true
		l.send(now, coherence.Msg{Type: coherence.MsgWBData, Dst: m.Src, Addr: m.Addr,
			Dirty: e.dirty}, e.data)
		return
	}
	// Invalidation for a line we no longer hold (crossed a PutS).
	l.send(now, coherence.Msg{Type: coherence.MsgInvAck, Dst: m.Src, Addr: m.Addr}, nil)
}

// ComponentLabel implements sim.Labeled (forensic reports).
func (l *L1) ComponentLabel() string { return fmt.Sprintf("mesi L1 %d", l.id) }

// Debug renders outstanding transaction state (deadlock diagnostics).
func (l *L1) Debug() string {
	s := fmt.Sprintf("L1 %d:", l.id)
	if l.rd != nil {
		s += fmt.Sprintf(" rd=%#x(squash=%v)", l.rd.addr, l.rd.squashed)
	}
	if l.wr != nil {
		s += fmt.Sprintf(" wr=%#x(upg=%v rmw=%v issued=%d)", l.wr.addr, l.wr.upgrade, l.wr.isRMW, l.wr.issued)
	}
	for a, e := range l.evict {
		s += fmt.Sprintf(" evict=%#x(dirty=%v xfer=%v)", a, e.dirty, e.transferred)
	}
	s += fmt.Sprintf(" timers=%d%v inbox=%d", l.timers.Pending(), l.timers.DueCycles(), len(l.inbox))
	return s
}

// PrewarmStorage implements coherence.Controller.
func (l *L1) PrewarmStorage() { l.cache.Prewarm() }
