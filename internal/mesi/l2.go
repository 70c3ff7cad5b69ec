package mesi

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/stats"
)

// L2 directory line states (invalid way = not present).
const (
	dirV = iota + 1 // valid at L2, no L1 copies
	dirS            // shared by the cores in the sharing vector
	dirX            // exclusive at owner (E or M in its L1)
)

type l2Line struct {
	state   int
	sharers coherence.CoreSet // full sharing vector (bit per core)
	owner   coherence.NodeID
	dirty   bool // data newer than memory
}

// Transaction kinds (coherence.Tx.Kind).
const (
	txMemFetch = iota + 1
	txAwaitAck // exclusive grant sent; waiting for requester Ack
	txFwdGetS  // forwarded read; waiting for owner WBData
	txFwdGetX  // forwarded write; waiting for requester Ack
	txInvColl  // invalidations outstanding; counting InvAcks
	txEvict    // evicting this line; waiting for acks/WBData
)

// L2 is one NUCA directory tile.
type L2 struct {
	id    coherence.NodeID
	tile  int
	cores int
	cache *memsys.Cache[l2Line]
	net   coherence.Network
	pool  *coherence.MsgPool
	mem   coherence.Memory

	accessLat sim.Cycle

	timers coherence.Timers
	sendFn func(now sim.Cycle, m *coherence.Msg) // bound once; see sendAfterAccess

	// txs owns the transaction lifecycle and message-ownership
	// discipline (see coherence.TxTable).
	txs coherence.TxTable

	// hooks are the fault, oracle and metrics attachment points; every
	// field is nil in a nominal run.
	hooks coherence.Hooks
}

// SetHooks implements coherence.Controller. MESI has no timestamps, so
// ResetFault is never read.
func (t *L2) SetHooks(h coherence.Hooks) { t.hooks = h }

// trans reports a directory-state transition to the legality oracle.
func (t *L2) trans(addr uint64, from, to int) {
	if t.hooks.Transition != nil && from != to {
		t.hooks.Transition(addr, from, to)
	}
}

// Txs implements coherence.Directory.
func (t *L2) Txs() *coherence.TxTable { return &t.txs }

// Counters implements coherence.Directory: MESI tiles count nothing
// beyond their TxTable's lifecycle.
func (t *L2) Counters() []*stats.Counter { return nil }

var txKindNames = []string{
	txMemFetch: "mem-fetch",
	txAwaitAck: "await-ack",
	txFwdGetS:  "fwd-gets",
	txFwdGetX:  "fwd-getx",
	txInvColl:  "inv-collect",
	txEvict:    "evict",
}

// NewL2 builds directory tile `tile`.
func NewL2(tile, cores int, sizeBytes, ways int, accessLat sim.Cycle, net coherence.Network, mem coherence.Memory) *L2 {
	if cores > coherence.MaxCores {
		panic(fmt.Sprintf("mesi: full sharing vector limited to %d cores in this model", coherence.MaxCores))
	}
	l2 := &L2{
		id:        coherence.L2ID(tile, cores),
		tile:      tile,
		cores:     cores,
		cache:     memsys.NewCache[l2Line](sizeBytes, ways),
		net:       net,
		pool:      net.MsgPoolFor(tile),
		mem:       mem,
		accessLat: accessLat,
	}
	l2.sendFn = l2.send
	l2.txs.Init(l2.pool, l2.handle)
	l2.txs.SetLabel(fmt.Sprintf("mesi.l2.%d", tile))
	l2.txs.SetKindNames(txKindNames)
	return l2
}

func (t *L2) send(now sim.Cycle, m *coherence.Msg) {
	m.Src = t.id
	t.net.Send(now, m)
}

// sendAfterAccess sends m after the tile access latency. Every
// directory-originated message to an L1 must leave through the same
// delay so that per-destination FIFO order matches processing order —
// an invalidation must never overtake an earlier data response.
func (t *L2) sendAfterAccess(now sim.Cycle, tmpl coherence.Msg, data []byte) {
	t.timers.AtMsg(now+t.accessLat, t.sendFn, t.pool.NewFrom(tmpl, data))
}

// BindWaker implements sim.WakeSink: the wake handle flows into the
// timer heap and the transaction table, which mark this tile due for
// scheduled actions and delivered messages respectively.
func (t *L2) BindWaker(w sim.Waker) {
	t.timers.SetWaker(w)
	t.txs.SetWaker(w)
}

// Deliver implements mesh.Endpoint.
func (t *L2) Deliver(now sim.Cycle, m *coherence.Msg) { t.txs.Deliver(m) }

// ComponentLabel implements sim.Labeled (forensic reports).
func (t *L2) ComponentLabel() string { return fmt.Sprintf("mesi L2 tile %d", t.tile) }

// Busy reports outstanding work (completion/deadlock checks).
func (t *L2) Busy() bool {
	return t.txs.Outstanding() || t.timers.Pending() > 0
}

// NextWake implements sim.WakeHinter: queued messages and retries need
// the very next cycle; otherwise the earliest due timer.
func (t *L2) NextWake(now sim.Cycle) sim.Cycle {
	if t.txs.QueuedWork() {
		return now + 1
	}
	if due, ok := t.timers.NextDue(); ok {
		return due
	}
	return sim.WakeNever
}

// Tick processes timers, retries and inbox messages.
func (t *L2) Tick(now sim.Cycle) {
	t.timers.Tick(now)
	t.txs.Drain(now)
}

func (t *L2) handle(now sim.Cycle, m *coherence.Msg) {
	switch m.Type {
	case coherence.MsgGetS, coherence.MsgGetX:
		t.handleRequest(now, m)
	case coherence.MsgPutS:
		t.handlePutS(now, m)
	case coherence.MsgPutE, coherence.MsgPutM:
		t.handlePut(now, m)
	case coherence.MsgAck:
		t.handleAck(now, m)
	case coherence.MsgInvAck:
		t.handleInvAck(now, m)
	case coherence.MsgWBData:
		t.handleWBData(now, m)
	default:
		panic(fmt.Sprintf("mesi: L2 %d cycle %d: unexpected message %s", t.id, now, m))
	}
}

func (t *L2) handleRequest(now sim.Cycle, m *coherence.Msg) {
	if t.txs.BusyLine(m.Addr) {
		t.txs.EnqueueWaiting(m)
		return
	}
	w := t.cache.Peek(m.Addr)
	if w == nil {
		t.startFetch(now, m)
		return
	}
	if m.Type == coherence.MsgGetS {
		t.serveGetS(now, m, w)
	} else {
		t.serveGetX(now, m, w)
	}
}

// startFetch allocates a line and fills it from memory.
func (t *L2) startFetch(now sim.Cycle, m *coherence.Msg) {
	v := t.cache.Victim(m.Addr)
	if v == nil {
		// Every way busy: retry next cycle.
		t.txs.EnqueueRetry(m)
		return
	}
	if v.Valid {
		if t.cache.AnyBusy(m.Addr) {
			// Another transaction (possibly an eviction) is active in
			// this set; wait rather than evicting way after way.
			t.txs.EnqueueRetry(m)
			return
		}
		if !t.evictLine(now, v) {
			// Asynchronous eviction started; retry the request after.
			t.txs.EnqueueRetry(m)
			return
		}
	}
	t.cache.Install(v, m.Addr)
	v.Busy = true
	t.txs.New(m.Addr, txMemFetch, m, 0)
	lat := t.accessLat + t.mem.Latency(m.Addr)
	addr := m.Addr
	t.timers.At(now+lat, func(nw sim.Cycle) {
		way := t.cache.Peek(addr)
		if way == nil {
			panic(fmt.Sprintf("mesi: L2 %d cycle %d: fetched line vanished %#x", t.id, now, addr))
		}
		t.mem.ReadBlock(addr, way.Data[:])
		t.trans(addr, 0, dirV)
		way.Meta.state = dirV
		way.Busy = false
		tx, _ := t.txs.Get(addr)
		req := tx.Req
		t.txs.Del(addr, tx, false)
		// The request's ownership flows back through the dispatch path:
		// the line is now present, so Consume re-serves it (recycling
		// the message unless a fresh transaction retains it).
		t.txs.Consume(nw, req)
	})
}

// evictLine evicts v. It returns true if the eviction completed
// synchronously (line now invalid); false if an asynchronous recall /
// invalidation transaction was started.
func (t *L2) evictLine(now sim.Cycle, v *memsys.Way[l2Line]) bool {
	addr := v.Tag
	switch v.Meta.state {
	case dirV:
		if v.Meta.dirty {
			t.mem.WriteBlock(addr, v.Data[:])
		}
		t.trans(addr, dirV, 0)
		t.cache.Invalidate(v)
		return true
	case dirS:
		n := 0
		for c := 0; c < t.cores; c++ {
			if v.Meta.sharers.Has(c) {
				t.sendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: coherence.L1ID(c), Addr: addr}, nil)
				n++
			}
		}
		v.Busy = true
		t.txs.New(addr, txEvict, nil, n)
		return false
	case dirX:
		t.sendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: v.Meta.owner, Addr: addr}, nil)
		v.Busy = true
		t.txs.New(addr, txEvict, nil, 1)
		return false
	}
	panic(fmt.Sprintf("mesi: L2 %d cycle %d: evictLine on invalid state %d for %#x", t.id, now, v.Meta.state, v.Tag))
}

func (t *L2) serveGetS(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line]) {
	switch w.Meta.state {
	case dirV:
		// Grant Exclusive (the E optimization: no other sharers).
		w.Busy = true
		tx := t.txs.New(m.Addr, txAwaitAck, m, 0)
		tx.NextOwner = m.Requestor
		t.respond(now, m.Requestor, coherence.MsgDataE, m.Addr, w.Data[:])
	case dirS:
		w.Meta.sharers.Add(int(m.Requestor))
		t.respond(now, m.Requestor, coherence.MsgDataS, m.Addr, w.Data[:])
	case dirX:
		if w.Meta.owner == m.Requestor {
			panic(fmt.Sprintf("mesi: L2 %d cycle %d: GetS from current owner %s", t.id, now, m))
		}
		w.Busy = true
		t.txs.New(m.Addr, txFwdGetS, m, 0)
		t.sendAfterAccess(now, coherence.Msg{Type: coherence.MsgFwdGetS, Dst: w.Meta.owner, Addr: m.Addr, Requestor: m.Requestor}, nil)
	}
}

func (t *L2) serveGetX(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line]) {
	switch w.Meta.state {
	case dirV:
		w.Busy = true
		tx := t.txs.New(m.Addr, txAwaitAck, m, 0)
		tx.NextOwner = m.Requestor
		t.respond(now, m.Requestor, coherence.MsgDataE, m.Addr, w.Data[:])
	case dirS:
		isUpgrade := w.Meta.sharers.Has(int(m.Requestor))
		others := 0
		for c := 0; c < t.cores; c++ {
			if w.Meta.sharers.Has(c) && coherence.L1ID(c) != m.Requestor {
				t.sendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: coherence.L1ID(c), Addr: m.Addr}, nil)
				others++
			}
		}
		w.Busy = true
		if others == 0 {
			tx := t.txs.New(m.Addr, txAwaitAck, m, 0)
			tx.NextOwner, tx.IsUpgrade = m.Requestor, isUpgrade
			t.grantX(now, m, w, isUpgrade)
		} else {
			tx := t.txs.New(m.Addr, txInvColl, m, others)
			tx.NextOwner, tx.IsUpgrade = m.Requestor, isUpgrade
		}
	case dirX:
		if w.Meta.owner == m.Requestor {
			panic(fmt.Sprintf("mesi: L2 %d cycle %d: GetX from current owner %s", t.id, now, m))
		}
		w.Busy = true
		tx := t.txs.New(m.Addr, txFwdGetX, m, 0)
		tx.NextOwner = m.Requestor
		t.sendAfterAccess(now, coherence.Msg{Type: coherence.MsgFwdGetX, Dst: w.Meta.owner, Addr: m.Addr, Requestor: m.Requestor}, nil)
	}
}

func (t *L2) grantX(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line], isUpgrade bool) {
	if isUpgrade {
		t.sendAfterAccess(now, coherence.Msg{Type: coherence.MsgUpgAck, Dst: m.Requestor, Addr: m.Addr}, nil)
	} else {
		t.respond(now, m.Requestor, coherence.MsgDataE, m.Addr, w.Data[:])
	}
}

func (t *L2) respond(now sim.Cycle, dst coherence.NodeID, typ coherence.MsgType, addr uint64, data []byte) {
	t.sendAfterAccess(now, coherence.Msg{Type: typ, Dst: dst, Addr: addr}, data)
}

func (t *L2) handleAck(now sim.Cycle, m *coherence.Msg) {
	tx, ok := t.txs.Get(m.Addr)
	if !ok || (tx.Kind != txAwaitAck && tx.Kind != txFwdGetX) {
		panic(fmt.Sprintf("mesi: L2 %d cycle %d: stray Ack %s", t.id, now, m))
	}
	w := t.cache.Peek(m.Addr)
	t.trans(m.Addr, w.Meta.state, dirX)
	w.Meta.state = dirX
	w.Meta.owner = tx.NextOwner
	w.Meta.sharers = coherence.CoreSet{}
	w.Busy = false
	t.txs.Del(m.Addr, tx, true)
	t.txs.DrainWaiting(now, m.Addr)
}

func (t *L2) handleInvAck(now sim.Cycle, m *coherence.Msg) {
	tx, ok := t.txs.Get(m.Addr)
	if !ok {
		panic(fmt.Sprintf("mesi: L2 %d cycle %d: stray InvAck %s", t.id, now, m))
	}
	tx.AcksLeft--
	if tx.AcksLeft > 0 {
		return
	}
	w := t.cache.Peek(m.Addr)
	switch tx.Kind {
	case txInvColl:
		// All sharers gone; grant exclusivity, stay busy until Ack.
		tx.Kind = txAwaitAck
		w.Meta.sharers = coherence.CoreSet{}
		t.grantX(now, tx.Req, w, tx.IsUpgrade)
	case txEvict:
		t.finishEvict(now, w)
	default:
		panic(fmt.Sprintf("mesi: L2 %d cycle %d: InvAck in tx kind %d", t.id, now, tx.Kind))
	}
}

func (t *L2) handleWBData(now sim.Cycle, m *coherence.Msg) {
	tx, ok := t.txs.Get(m.Addr)
	if !ok {
		panic(fmt.Sprintf("mesi: L2 %d cycle %d: stray WBData %s", t.id, now, m))
	}
	w := t.cache.Peek(m.Addr)
	switch tx.Kind {
	case txFwdGetS:
		copy(w.Data[:], m.Data)
		if m.Dirty {
			w.Meta.dirty = true
		}
		prevOwner := w.Meta.owner
		t.trans(m.Addr, w.Meta.state, dirS)
		w.Meta.state = dirS
		w.Meta.sharers = coherence.CoreSet{}
		w.Meta.sharers.Add(int(tx.Req.Requestor))
		if !m.NoCopy {
			// Previous owner kept a downgraded Shared copy.
			w.Meta.sharers.Add(int(prevOwner))
		}
		w.Meta.owner = 0
		w.Busy = false
		t.txs.Del(m.Addr, tx, true)
		t.txs.DrainWaiting(now, m.Addr)
	case txEvict:
		if m.Dirty {
			copy(w.Data[:], m.Data)
			w.Meta.dirty = true
		}
		t.finishEvict(now, w)
	default:
		panic(fmt.Sprintf("mesi: L2 %d cycle %d: WBData in tx kind %d", t.id, now, tx.Kind))
	}
}

func (t *L2) finishEvict(now sim.Cycle, w *memsys.Way[l2Line]) {
	addr := w.Tag
	if w.Meta.dirty {
		t.mem.WriteBlock(addr, w.Data[:])
	}
	tx, _ := t.txs.Get(addr)
	t.txs.Del(addr, tx, false)
	t.trans(addr, w.Meta.state, 0)
	t.cache.Invalidate(w)
	// Requests that queued behind the eviction now miss and refetch.
	t.txs.DrainWaiting(now, addr)
}

func (t *L2) handlePutS(now sim.Cycle, m *coherence.Msg) {
	w := t.cache.Peek(m.Addr)
	if w == nil || w.Meta.state != dirS {
		return
	}
	if t.txs.BusyLine(m.Addr) {
		// An invalidation round may be counting this sharer; let the
		// crossing InvAck from the (now absent) sharer settle it.
		t.txs.EnqueueWaiting(m)
		return
	}
	w.Meta.sharers.Remove(int(m.Src))
	if w.Meta.sharers.Empty() {
		t.trans(m.Addr, dirS, dirV)
		w.Meta.state = dirV
	}
}

func (t *L2) handlePut(now sim.Cycle, m *coherence.Msg) {
	if t.txs.BusyLine(m.Addr) {
		t.txs.EnqueueWaiting(m)
		return
	}
	w := t.cache.Peek(m.Addr)
	if w == nil || w.Meta.state != dirX || w.Meta.owner != m.Src {
		// Stale writeback: ownership already moved on. Ack and drop.
		t.sendPutAck(now, m.Src, m.Addr)
		return
	}
	if m.Type == coherence.MsgPutM {
		copy(w.Data[:], m.Data)
		w.Meta.dirty = true
	}
	t.trans(m.Addr, dirX, dirV)
	w.Meta.state = dirV
	w.Meta.owner = 0
	t.sendPutAck(now, m.Src, m.Addr)
}

// sendPutAck schedules an eviction acknowledgement. The victim fault
// profile adds extra cycles here, deliberately outside the shared
// sendAfterAccess delay so a late PutAck can be overtaken by later
// directory traffic — the requester's evict-buffer machinery must absorb
// the reorder (PutAck only clears the buffered entry, so it is legal).
func (t *L2) sendPutAck(now sim.Cycle, dst coherence.NodeID, addr uint64) {
	extra := sim.Cycle(0)
	if t.hooks.AckDelay != nil {
		extra = t.hooks.AckDelay()
	}
	t.timers.AtMsg(now+t.accessLat+extra, t.sendFn,
		t.pool.NewFrom(coherence.Msg{Type: coherence.MsgPutAck, Dst: dst, Addr: addr}, nil))
}

// Debug renders outstanding transaction state (deadlock diagnostics).
func (t *L2) Debug() string {
	return fmt.Sprintf("L2 %d:%s timers=%d", t.id, t.txs.Debug(), t.timers.Pending())
}

// PrewarmStorage implements coherence.Controller.
func (t *L2) PrewarmStorage() { t.cache.Prewarm() }
