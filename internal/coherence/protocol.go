package coherence

import (
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/sim"
)

// Network is the interconnect surface a protocol builds against: message
// injection plus the message free lists. Implemented by mesh.Network;
// controllers hold this interface so protocol packages depend only on
// the coherence layer, not on the mesh model. Controllers must draw
// messages from MsgPoolFor(tile) for their own tile — under a sharded
// engine each shard's tiles share a private pool, keeping the
// allocation fast path unsynchronized; in single-threaded mode every
// tile maps to the one shared pool (MsgPool).
type Network interface {
	Send(now sim.Cycle, m *Msg)
	MsgPool() *MsgPool
	MsgPoolFor(tile int) *MsgPool
}

// Memory is the backing-store surface protocols fill from and write back
// to. Implemented by memsys.Memory.
type Memory interface {
	Latency(addr uint64) sim.Cycle
	ReadBlock(addr uint64, dst []byte)
	WriteBlock(addr uint64, src []byte)
}

// Protocol builds the coherence machinery for a system configuration:
// one L1 controller per core and one directory (L2) controller per tile.
// Implementations register themselves with RegisterProtocol so systems,
// harnesses and CLIs resolve protocols by name instead of hard-coding
// the known set.
type Protocol interface {
	Name() string
	Build(sys config.System, net Network, mem Memory) ([]L1Like, []Directory)
}

// registryEntry pairs a factory with its plotting order.
type registryEntry struct {
	name    string
	order   int
	factory func() Protocol
}

var registry []registryEntry

// RegisterProtocol adds a protocol factory under a unique name. The
// order key sorts Protocols()/ProtocolNames() deterministically (the
// paper's plotting order) regardless of package-init sequence; ties
// break by name. Called from protocol package init functions; a
// duplicate name panics.
func RegisterProtocol(name string, order int, factory func() Protocol) {
	for _, e := range registry {
		if e.name == name {
			panic(fmt.Sprintf("coherence: protocol %q registered twice", name))
		}
	}
	registry = append(registry, registryEntry{name: name, order: order, factory: factory})
	sort.SliceStable(registry, func(i, j int) bool {
		if registry[i].order != registry[j].order {
			return registry[i].order < registry[j].order
		}
		return registry[i].name < registry[j].name
	})
}

// ProtocolByName instantiates the registered protocol with that name.
func ProtocolByName(name string) (Protocol, error) {
	for _, e := range registry {
		if e.name == name {
			return e.factory(), nil
		}
	}
	return nil, fmt.Errorf("coherence: unknown protocol %q (registered: %v)", name, ProtocolNames())
}

// ProtocolNames lists every registered protocol name in order.
func ProtocolNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// Protocols instantiates every registered protocol in order.
func Protocols() []Protocol {
	out := make([]Protocol, len(registry))
	for i, e := range registry {
		out[i] = e.factory()
	}
	return out
}
