package tsocc

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/stats"
)

// L2 directory states (invalid way = not present).
const (
	dirV = iota + 1 // Uncached: valid at L2, no tracked L1 copy
	dirX            // Exclusive: owned by one L1 (owner pointer)
	dirS            // Shared: untracked sharers, last-writer + timestamp
	dirR            // SharedRO: read-only, coarse sharing vector
)

type l2Line struct {
	state       int
	owner       coherence.NodeID // owner (X) / last writer (V, S)
	sharerBits  uint64           // coarse vector (R); reuses the owner field's storage
	ts          uint32           // writer ts (V/S) or tile SRO ts (R)
	dirty       bool             // data newer than memory
	wasModified bool             // written since the L2 obtained this copy
}

// Transaction kinds (coherence.Tx.Kind).
const (
	txMemFetch = iota + 1
	txAwaitAck // DataE sent; waiting for requester Ack
	txFwdGetS  // waiting for owner WBData
	txFwdGetX  // waiting for requester Ack after owner handoff
	txSROInv   // SharedRO write: counting broadcast InvAcks
	txEvict    // evicting: waiting for recall WBData / InvAcks
)

// L2 is one TSO-CC NUCA tile.
type L2 struct {
	id    coherence.NodeID
	tile  int
	cores int
	cfg   config.TSOCC
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

	membersBuf []int // scratch for coarse sharer expansion

	// Last-seen writer timestamps and epochs per L1 (Table 1, L2 side).
	tsL1    lastSeen
	epochL1 []uint8

	// SharedRO timestamp source (§3.4) and its reset epoch (§3.5), plus
	// the two increment flags (dirty-eviction/modified-uncached, and
	// entered-Shared).
	sroSrc   uint32
	sroEpoch uint8
	flag1    bool
	flag2    bool

	// hooks are the fault, oracle and metrics attachment points; every
	// field is nil in a nominal run.
	hooks coherence.Hooks

	// Tile-level stats.
	SROTransitions  stats.Counter
	SROInvBcasts    stats.Counter
	DecayEvents     stats.Counter
	TimestampResets stats.Counter
}

// SetHooks implements coherence.Controller.
func (t *L2) SetHooks(h coherence.Hooks) { t.hooks = h }

// Txs implements coherence.Directory.
func (t *L2) Txs() *coherence.TxTable { return &t.txs }

// Counters implements coherence.Directory: the tile's SharedRO,
// decay-and-broadcast and timestamp-reset events.
func (t *L2) Counters() []*stats.Counter {
	return []*stats.Counter{&t.SROTransitions, &t.SROInvBcasts, &t.DecayEvents, &t.TimestampResets}
}

var txKindNames = []string{
	txMemFetch: "mem-fetch",
	txAwaitAck: "await-ack",
	txFwdGetS:  "fwd-gets",
	txFwdGetX:  "fwd-getx",
	txSROInv:   "sro-inv",
	txEvict:    "evict",
}

// trans reports a directory-state transition to the legality oracle;
// self-loops are dropped here so call sites stay simple.
func (t *L2) trans(addr uint64, from, to int) {
	if t.hooks.Transition != nil && from != to {
		t.hooks.Transition(addr, from, to)
	}
}

// NewL2 builds TSO-CC tile `tile`.
func NewL2(tile, cores int, sys config.System, cfg config.TSOCC, net coherence.Network, mem coherence.Memory) *L2 {
	l2 := &L2{
		id:        coherence.L2ID(tile, cores),
		tile:      tile,
		cores:     cores,
		cfg:       cfg,
		cache:     memsys.NewCache[l2Line](sys.L2TileSize, sys.L2Ways),
		net:       net,
		pool:      net.MsgPoolFor(tile),
		mem:       mem,
		accessLat: sys.L2AccessLat,
		tsL1:      newLastSeen(0, cores),
		epochL1:   make([]uint8, cores),
		sroSrc:    tsFirst,
	}
	l2.sendFn = l2.send
	l2.txs.Init(l2.pool, l2.handle)
	label := fmt.Sprintf("tsocc.l2.%d", tile)
	l2.SROTransitions.SetName(label + ".sro_transitions")
	l2.SROInvBcasts.SetName(label + ".sro_inv_bcasts")
	l2.DecayEvents.SetName(label + ".decay_events")
	l2.TimestampResets.SetName(label + ".timestamp_resets")
	l2.txs.SetLabel(label)
	l2.txs.SetKindNames(txKindNames)
	return l2
}

func (t *L2) send(now sim.Cycle, m *coherence.Msg) {
	m.Src = t.id
	t.net.Send(now, m)
}

// sendAfterAccess sends m after the tile access latency so that every
// directory-originated message to a given L1 leaves in processing order
// (an invalidation must never overtake an earlier data response).
func (t *L2) sendAfterAccess(now sim.Cycle, tmpl coherence.Msg, data []byte) {
	t.timers.AtMsg(now+t.accessLat, t.sendFn, t.pool.NewFrom(tmpl, data))
}

// sendPutAck schedules an eviction acknowledgement, adding any victim
// fault delay. PutAck is the one directory-originated message allowed
// to slip behind later traffic to the same L1: its handler only clears
// an evict-buffer entry, so reordering it is protocol-legal and is
// exactly the victim/writeback race the profile injects.
func (t *L2) sendPutAck(now sim.Cycle, dst coherence.NodeID, addr uint64) {
	extra := sim.Cycle(0)
	if t.hooks.AckDelay != nil {
		extra = t.hooks.AckDelay()
	}
	t.timers.AtMsg(now+t.accessLat+extra, t.sendFn,
		t.pool.NewFrom(coherence.Msg{Type: coherence.MsgPutAck, Dst: dst, Addr: addr}, nil))
}

// coarseMembersBuf expands a coarse sharer vector into preallocated
// scratch (valid until the next call).
func (t *L2) coarseMembersBuf(vec uint64) []int {
	t.membersBuf = appendCoarseMembers(t.membersBuf[:0], vec, t.cores)
	return t.membersBuf
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
func (t *L2) ComponentLabel() string { return fmt.Sprintf("tsocc L2 tile %d", t.tile) }

// Debug renders outstanding directory state (deadlock diagnostics).
func (t *L2) Debug() string {
	return fmt.Sprintf("L2 %d:%s timers=%d", t.tile, t.txs.Debug(), t.timers.Pending())
}

// Busy implements coherence.Controller.
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

// SnoopBlock implements coherence.Controller.
func (t *L2) SnoopBlock(addr uint64) ([]byte, bool) {
	if w := t.cache.Peek(addr); w != nil && w.Meta.state != dirX {
		return w.Data[:], true
	}
	return nil, false
}

// SnoopOwner reports the L1 holding addr exclusively, if any (used by
// post-run functional reads to snoop only the cache that can hold the
// freshest copy).
func (t *L2) SnoopOwner(addr uint64) (coherence.NodeID, bool) {
	if w := t.cache.Peek(addr); w != nil && w.Meta.state == dirX {
		return w.Meta.owner, true
	}
	return 0, false
}

// Tick implements sim.Ticker.
func (t *L2) Tick(now sim.Cycle) {
	t.timers.Tick(now)
	t.txs.Drain(now)
}

func (t *L2) handle(now sim.Cycle, m *coherence.Msg) {
	switch m.Type {
	case coherence.MsgGetS, coherence.MsgGetX:
		t.handleRequest(now, m)
	case coherence.MsgPutE, coherence.MsgPutM:
		t.handlePut(now, m)
	case coherence.MsgAck:
		t.handleAck(now, m)
	case coherence.MsgInvAck:
		t.handleInvAck(now, m)
	case coherence.MsgWBData:
		t.handleWBData(now, m)
	case coherence.MsgTSResetL1:
		src := int(m.Src)
		t.tsL1.drop(src)
		t.epochL1[src] = m.Epoch
	default:
		panic(fmt.Sprintf("tsocc: L2 %d cycle %d: unexpected message %s", t.id, now, m))
	}
}

// ---- Timestamp helpers ----

// respTS computes the (ts, epoch, valid) triple for a non-SharedRO data
// response (§3.5): the line's timestamp if it provably belongs to the
// writer's current epoch (tsL1[writer] >= b.ts), otherwise the smallest
// valid timestamp.
func (t *L2) respTS(w *l2Line) (uint32, uint8, bool) {
	if !t.cfg.Timestamps() || w.ts == tsInvalid {
		return tsInvalid, 0, false
	}
	writer := int(w.owner)
	if writer < 0 || writer >= t.cores {
		return tsInvalid, 0, false
	}
	last, ok := t.tsL1.get(writer)
	if ok && last >= w.ts {
		return w.ts, t.epochL1[writer], true
	}
	return tsSmallest, t.epochL1[writer], true
}

// sroTS computes the response timestamp for a SharedRO line.
func (t *L2) sroTS(w *l2Line) (uint32, uint8, bool) {
	if !t.cfg.Timestamps() || w.ts == tsInvalid {
		return tsInvalid, 0, false
	}
	if w.ts > t.sroSrc {
		return tsSmallest, t.sroEpoch, true
	}
	return w.ts, t.sroEpoch, true
}

// assignSROTS produces the timestamp for a line transitioning to
// SharedRO, incrementing the tile source when either condition flag is
// set (timestamp grouping for SharedRO lines, §3.4).
func (t *L2) assignSROTS(now sim.Cycle) uint32 {
	if !t.cfg.Timestamps() {
		return tsInvalid
	}
	if t.hooks.ResetFault != nil && t.hooks.ResetFault() {
		// Reset-storm fault: roll the SharedRO timestamp space over as
		// if TSMax were reached before assigning.
		t.resetSRO(now)
	}
	if t.flag1 || t.flag2 {
		t.flag1, t.flag2 = false, false
		if t.sroSrc >= t.cfg.TSMax() {
			t.resetSRO(now)
		} else {
			t.sroSrc++
		}
	}
	return t.sroSrc
}

func (t *L2) resetSRO(now sim.Cycle) {
	t.TimestampResets.Inc()
	t.sroEpoch = (t.sroEpoch + 1) & uint8((1<<uint(t.cfg.EpochBits))-1)
	t.sroSrc = tsFirst
	for c := 0; c < t.cores; c++ {
		t.send(now, t.pool.NewFrom(coherence.Msg{Type: coherence.MsgTSResetL2,
			Dst: coherence.L1ID(c), Epoch: t.sroEpoch}, nil))
	}
}

// noteWriterTS records a writer's timestamp observed in an ack or
// writeback, advancing the tile's last-seen table.
func (t *L2) noteWriterTS(writer coherence.NodeID, m *coherence.Msg) {
	if !m.TSValid || m.TS <= tsSmallest {
		return
	}
	w := int(writer)
	if m.Epoch != t.epochL1[w] {
		// A reset raced ahead of us; adopt the new epoch first.
		t.tsL1.drop(w)
		t.epochL1[w] = m.Epoch
	}
	t.tsL1.update(w, m.TS)
}

// ---- Request handling ----

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

func (t *L2) startFetch(now sim.Cycle, m *coherence.Msg) {
	v := t.cache.Victim(m.Addr)
	if v == nil {
		t.txs.EnqueueRetry(m)
		return
	}
	if v.Valid {
		if t.cache.AnyBusy(m.Addr) {
			t.txs.EnqueueRetry(m)
			return
		}
		if !t.evictLine(now, v) {
			t.txs.EnqueueRetry(m)
			return
		}
	}
	t.cache.Install(v, m.Addr)
	v.Busy = true
	t.txs.New(m.Addr, txMemFetch, m, 0)
	addr := m.Addr
	t.timers.At(now+t.accessLat+t.mem.Latency(addr), func(nw sim.Cycle) {
		way := t.cache.Peek(addr)
		t.mem.ReadBlock(addr, way.Data[:])
		t.trans(addr, 0, dirV)
		way.Meta = l2Line{state: dirV, owner: -1}
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

// evictLine evicts v; true = completed synchronously.
func (t *L2) evictLine(now sim.Cycle, v *memsys.Way[l2Line]) bool {
	addr := v.Tag
	switch v.Meta.state {
	case dirV, dirS:
		// Shared lines are untracked: evict silently; sharers will
		// self-invalidate their stale copies eventually (§3.2). Their
		// timestamps are lost, which later forces mandatory
		// self-invalidation at readers (invalid-ts responses).
		if v.Meta.dirty {
			t.mem.WriteBlock(addr, v.Data[:])
			t.flag1 = true // condition 1: dirty line left the L2
		}
		t.trans(addr, v.Meta.state, 0)
		t.cache.Invalidate(v)
		return true
	case dirR:
		// SharedRO lines are eagerly coherent; recall the coarse
		// groups before dropping (keeps R copies inclusive — see
		// DESIGN.md interpretation notes).
		members := t.coarseMembersBuf(v.Meta.sharerBits)
		if len(members) == 0 {
			if v.Meta.dirty {
				t.mem.WriteBlock(addr, v.Data[:])
				t.flag1 = true
			}
			t.trans(addr, dirR, 0)
			t.cache.Invalidate(v)
			return true
		}
		for _, c := range members {
			t.sendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: coherence.L1ID(c), Addr: addr}, nil)
		}
		v.Busy = true
		t.txs.New(addr, txEvict, nil, len(members))
		return false
	case dirX:
		t.sendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: v.Meta.owner, Addr: addr}, nil)
		v.Busy = true
		t.txs.New(addr, txEvict, nil, 1)
		return false
	}
	panic(fmt.Sprintf("tsocc: L2 %d cycle %d: evictLine on invalid state %d for %#x", t.id, now, v.Meta.state, v.Tag))
}

func (t *L2) serveGetS(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line]) {
	switch w.Meta.state {
	case dirV:
		// Uncached: grant Exclusive (§3.2).
		if w.Meta.wasModified {
			t.flag1 = true // condition 1: modified line re-enters circulation
		}
		ts, ep, valid := t.respTS(&w.Meta)
		w.Busy = true
		t.txs.New(m.Addr, txAwaitAck, m, 0)
		t.respond(now, m.Requestor, coherence.MsgDataE, m.Addr, w.Data[:], w.Meta.owner, ts, ep, valid)
	case dirX:
		if w.Meta.owner == m.Requestor {
			panic(fmt.Sprintf("tsocc: L2 %d cycle %d: GetS from current owner %s", t.id, now, m))
		}
		w.Busy = true
		t.txs.New(m.Addr, txFwdGetS, m, 0)
		t.sendAfterAccess(now, coherence.Msg{Type: coherence.MsgFwdGetS, Dst: w.Meta.owner, Addr: m.Addr, Requestor: m.Requestor}, nil)
	case dirS:
		if t.shouldDecay(&w.Meta) {
			t.DecayEvents.Inc()
			t.toSharedRO(now, w)
			t.serveGetS(now, m, w)
			return
		}
		ts, ep, valid := t.respTS(&w.Meta)
		t.respond(now, m.Requestor, coherence.MsgDataS, m.Addr, w.Data[:], w.Meta.owner, ts, ep, valid)
	case dirR:
		ts, ep, valid := t.sroTS(&w.Meta)
		w.Meta.sharerBits |= coarseBit(m.Requestor, t.cores)
		t.respond(now, m.Requestor, coherence.MsgDataSRO, m.Addr, w.Data[:], -1, ts, ep, valid)
	}
}

// shouldDecay applies the Shared→SharedRO decay rule (§3.4): the line has
// not been written for DecayWrites writes of its last writer, measured in
// timestamp distance scaled by the write-group size.
func (t *L2) shouldDecay(w *l2Line) bool {
	if !t.cfg.SharedRO || !t.cfg.Timestamps() || t.cfg.DecayWrites == 0 {
		return false
	}
	if w.ts <= tsSmallest {
		return false
	}
	writer := int(w.owner)
	if writer < 0 || writer >= t.cores {
		return false
	}
	last, ok := t.tsL1.get(writer)
	if !ok || last < w.ts {
		return false
	}
	decayTS := t.cfg.DecayWrites >> uint(t.cfg.WriteGroupBits)
	if decayTS == 0 {
		decayTS = 1
	}
	return last-w.ts >= decayTS
}

// toSharedRO transitions a line to SharedRO, assigning a tile timestamp.
func (t *L2) toSharedRO(now sim.Cycle, w *memsys.Way[l2Line]) {
	t.SROTransitions.Inc()
	t.trans(w.Tag, w.Meta.state, dirR)
	w.Meta.state = dirR
	w.Meta.sharerBits = 0
	w.Meta.ts = t.assignSROTS(now)
	w.Meta.owner = -1
}

func (t *L2) serveGetX(now sim.Cycle, m *coherence.Msg, w *memsys.Way[l2Line]) {
	switch w.Meta.state {
	case dirV:
		ts, ep, valid := t.respTS(&w.Meta)
		w.Busy = true
		t.txs.New(m.Addr, txAwaitAck, m, 0)
		t.respond(now, m.Requestor, coherence.MsgDataE, m.Addr, w.Data[:], w.Meta.owner, ts, ep, valid)
	case dirX:
		if w.Meta.owner == m.Requestor {
			panic(fmt.Sprintf("tsocc: L2 %d cycle %d: GetX from current owner %s", t.id, now, m))
		}
		w.Busy = true
		t.txs.New(m.Addr, txFwdGetX, m, 0)
		t.sendAfterAccess(now, coherence.Msg{Type: coherence.MsgFwdGetX, Dst: w.Meta.owner, Addr: m.Addr, Requestor: m.Requestor}, nil)
	case dirS:
		// The lazy write path: respond immediately with the full line;
		// unaware sharers keep stale copies until they self-invalidate
		// (§3.2). No invalidation fan-out.
		ts, ep, valid := t.respTS(&w.Meta)
		w.Busy = true
		t.txs.New(m.Addr, txAwaitAck, m, 0)
		t.respond(now, m.Requestor, coherence.MsgDataE, m.Addr, w.Data[:], w.Meta.owner, ts, ep, valid)
	case dirR:
		// Writes to SharedRO lines broadcast invalidations to the
		// coarse sharer groups (§3.4).
		members := t.coarseMembersBuf(w.Meta.sharerBits)
		// The requester's own copy is handled by FIFO ordering: its
		// Inv (if any) arrives before the later DataE.
		t.SROInvBcasts.Inc()
		if len(members) == 0 {
			ts, ep, valid := t.sroTS(&w.Meta)
			w.Busy = true
			t.txs.New(m.Addr, txAwaitAck, m, 0)
			t.respond(now, m.Requestor, coherence.MsgDataE, m.Addr, w.Data[:], -1, ts, ep, valid)
			return
		}
		for _, c := range members {
			t.sendAfterAccess(now, coherence.Msg{Type: coherence.MsgInv, Dst: coherence.L1ID(c), Addr: m.Addr}, nil)
		}
		w.Busy = true
		t.txs.New(m.Addr, txSROInv, m, len(members))
	}
}

func (t *L2) respond(now sim.Cycle, dst coherence.NodeID, typ coherence.MsgType, addr uint64,
	data []byte, owner coherence.NodeID, ts uint32, epoch uint8, tsValid bool) {
	t.sendAfterAccess(now, coherence.Msg{Type: typ, Dst: dst, Addr: addr, Owner: owner,
		TS: ts, Epoch: epoch, TSValid: tsValid}, data)
}

// ---- Completion handling ----

func (t *L2) handleAck(now sim.Cycle, m *coherence.Msg) {
	tx, ok := t.txs.Get(m.Addr)
	if !ok || (tx.Kind != txAwaitAck && tx.Kind != txFwdGetX) {
		panic(fmt.Sprintf("tsocc: L2 %d cycle %d: stray Ack %s", t.id, now, m))
	}
	w := t.cache.Peek(m.Addr)
	t.trans(m.Addr, w.Meta.state, dirX)
	w.Meta.state = dirX
	w.Meta.owner = tx.Req.Requestor
	w.Meta.sharerBits = 0
	if m.TSValid {
		// The ack finalizes a write: record its timestamp (§3.5's
		// "updated when the L2 updates a line's timestamp").
		w.Meta.wasModified = true
		w.Meta.ts = m.TS
		t.noteWriterTS(tx.Req.Requestor, m)
	}
	w.Busy = false
	t.txs.Del(m.Addr, tx, true)
	t.txs.DrainWaiting(now, m.Addr)
}

func (t *L2) handleInvAck(now sim.Cycle, m *coherence.Msg) {
	tx, ok := t.txs.Get(m.Addr)
	if !ok {
		panic(fmt.Sprintf("tsocc: L2 %d cycle %d: stray InvAck %s", t.id, now, m))
	}
	tx.AcksLeft--
	if tx.AcksLeft > 0 {
		return
	}
	w := t.cache.Peek(m.Addr)
	switch tx.Kind {
	case txSROInv:
		// All SharedRO copies invalidated; grant exclusivity.
		ts, ep, valid := t.sroTS(&w.Meta)
		tx.Kind = txAwaitAck
		w.Meta.sharerBits = 0
		t.respond(now, tx.Req.Requestor, coherence.MsgDataE, m.Addr, w.Data[:], -1, ts, ep, valid)
	case txEvict:
		t.finishEvict(now, w)
	default:
		panic(fmt.Sprintf("tsocc: L2 %d cycle %d: InvAck in tx kind %d", t.id, now, tx.Kind))
	}
}

func (t *L2) handleWBData(now sim.Cycle, m *coherence.Msg) {
	tx, ok := t.txs.Get(m.Addr)
	if !ok {
		panic(fmt.Sprintf("tsocc: L2 %d cycle %d: stray WBData %s", t.id, now, m))
	}
	w := t.cache.Peek(m.Addr)
	switch tx.Kind {
	case txFwdGetS:
		prevOwner := w.Meta.owner
		copy(w.Data[:], m.Data)
		if m.Dirty {
			w.Meta.dirty = true
			w.Meta.wasModified = true
			if m.TSValid {
				w.Meta.ts = m.TS
			} else {
				w.Meta.ts = tsInvalid
			}
			t.noteWriterTS(prevOwner, m)
			// Modified by the previous owner: enters Shared (§3.4),
			// last writer = previous owner.
			t.trans(m.Addr, w.Meta.state, dirS)
			w.Meta.state = dirS
			w.Meta.owner = prevOwner
			t.flag2 = true // condition 2: line entered Shared
		} else if t.cfg.SharedRO {
			// Unmodified by the previous owner: SharedRO.
			t.toSharedRO(now, w)
			w.Meta.sharerBits = coarseBit(tx.Req.Requestor, t.cores)
			if !m.NoCopy {
				w.Meta.sharerBits |= coarseBit(prevOwner, t.cores)
			}
		} else {
			t.trans(m.Addr, w.Meta.state, dirS)
			w.Meta.state = dirS
			w.Meta.owner = prevOwner
			t.flag2 = true
		}
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
		panic(fmt.Sprintf("tsocc: L2 %d cycle %d: WBData in tx kind %d", t.id, now, tx.Kind))
	}
}

func (t *L2) finishEvict(now sim.Cycle, w *memsys.Way[l2Line]) {
	addr := w.Tag
	if w.Meta.dirty {
		t.mem.WriteBlock(addr, w.Data[:])
		t.flag1 = true
	}
	tx, _ := t.txs.Get(addr)
	t.txs.Del(addr, tx, false)
	t.trans(addr, w.Meta.state, 0)
	t.cache.Invalidate(w)
	t.txs.DrainWaiting(now, addr)
}

func (t *L2) handlePut(now sim.Cycle, m *coherence.Msg) {
	if t.txs.BusyLine(m.Addr) {
		t.txs.EnqueueWaiting(m)
		return
	}
	w := t.cache.Peek(m.Addr)
	if w == nil || w.Meta.state != dirX || w.Meta.owner != m.Src {
		// Stale writeback (ownership moved while the Put was in
		// flight): acknowledge and drop.
		t.sendPutAck(now, m.Src, m.Addr)
		return
	}
	if m.Type == coherence.MsgPutM {
		copy(w.Data[:], m.Data)
		w.Meta.dirty = true
		w.Meta.wasModified = true
		if m.TSValid {
			w.Meta.ts = m.TS
		} else {
			w.Meta.ts = tsInvalid
		}
		t.noteWriterTS(m.Src, m)
	}
	t.trans(m.Addr, w.Meta.state, dirV)
	w.Meta.state = dirV
	// Keep owner as last-writer for timestamp responses.
	t.sendPutAck(now, m.Src, m.Addr)
}

// PrewarmStorage implements coherence.Controller.
func (t *L2) PrewarmStorage() { t.cache.Prewarm() }
