// End-to-end gate for the protocol-legality oracle and the violation
// shrinker: a deliberately seeded legality bug — a test-only protocol
// wrapper that reports a Modified → Exclusive hop after enough forced
// evictions — must be (a) caught by the oracle the cycle it happens,
// (b) reduced by the shrinker to a minimal (scale, fault-window) tuple,
// and (c) reproduced by replaying that tuple, tripping the same
// violation kind.
package repro_test

import (
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/mesi"
	"repro/internal/shrink"
	"repro/internal/system"
	"repro/internal/workloads"
)

// MESI L1 state ids as the legality table names them (the package keeps
// them unexported; the oracle only sees the ints).
const (
	mesiL1S = 1
	mesiL1E = 2
	mesiL1M = 3
)

// buggyTrigger is the number of fired evict faults (on one L1) after
// which the seeded bug reports its illegal transition.
const buggyTrigger = 12

// buggyMESI wraps the MESI protocol: same name (so the registered
// legality table applies), same controllers, but every L1 is wrapped so
// its evict-fault hook counts fires and, on the buggyTrigger-th one,
// reports a bogus M → E hop to the legality sink. The bug is
// fault-dependent on purpose: narrowing the injector's decision window
// masks it, which is exactly what the shrinker bisects.
type buggyMESI struct{ inner system.Protocol }

func (p buggyMESI) Name() string { return p.inner.Name() }

func (p buggyMESI) Build(cfg config.System, net coherence.Network, mem coherence.Memory) ([]coherence.L1Like, []coherence.Directory) {
	l1s, l2s := p.inner.Build(cfg, net, mem)
	for i, l1 := range l1s {
		l1s[i] = &buggyL1{L1Like: l1}
	}
	return l1s, l2s
}

type buggyL1 struct {
	coherence.L1Like
	fires int
}

// SetHooks wraps the injector's evict-fault hook before attaching the
// hooks to the real L1: fires pass through, and the buggyTrigger-th one
// also reports the illegal M → E transition to the oracle's sink.
func (b *buggyL1) SetHooks(h coherence.Hooks) {
	evict, sink := h.EvictFault, h.Transition
	if evict != nil {
		h.EvictFault = func() bool {
			fired := evict()
			if fired {
				b.fires++
				if b.fires == buggyTrigger && sink != nil {
					sink(0xbad0, mesiL1M, mesiL1E)
				}
			}
			return fired
		}
	}
	b.L1Like.SetHooks(h)
}

func TestSeededLegalityBugShrinks(t *testing.T) {
	e := workloads.ByName("ssca2")
	proto := buggyMESI{inner: mesi.New()}
	probe := func(scale int, from, until uint64) shrink.Outcome {
		cfg := config.Small(4)
		cfg.FaultProfile = "evict:rate=400"
		cfg.FaultSeed = 11
		cfg.FaultFrom, cfg.FaultUntil = from, until
		cfg.Checks = true
		w := e.Gen(workloads.Params{Threads: 4, Scale: scale, Seed: 5})
		m, err := system.NewMachine(cfg, proto, w)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		out := shrink.Outcome{}
		_, rerr := m.Execute()
		out.MaxCounter = m.Injector().MaxCounter()
		if viols, n := m.Checks().Violations(); n > 0 {
			out.Failed = true
			out.Kind = viols[0].Kind
			out.Detail = viols[0].String()
		} else if rerr != nil {
			out.Failed = true
			out.Kind = "error"
			out.Detail = rerr.Error()
		}
		return out
	}

	// (a) The oracle catches the seeded bug on the unrestricted run.
	base := probe(4, 0, 0)
	if !base.Failed || base.Kind != "legality" {
		t.Fatalf("seeded bug not caught by the legality oracle: failed=%v kind=%q detail=%q",
			base.Failed, base.Kind, base.Detail)
	}
	if !strings.Contains(base.Detail, "M -> E") {
		t.Fatalf("violation does not name the illegal hop with protocol state names: %q", base.Detail)
	}

	// (b) The shrinker reduces it.
	r, err := shrink.Shrink(shrink.Input{Scale: 4, Run: probe})
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if r.Kind != "legality" {
		t.Fatalf("shrinker wandered to a different failure: kind=%q detail=%q", r.Kind, r.Detail)
	}
	if full := base.MaxCounter + 1; r.Until >= full {
		t.Fatalf("window not reduced: [%d,%d) vs full [0,%d)", r.From, r.Until, full)
	}

	// (c) Replaying the reduced tuple trips the same violation.
	again := probe(r.Scale, r.From, r.Until)
	if !again.Failed || again.Kind != "legality" || !strings.Contains(again.Detail, "M -> E") {
		t.Fatalf("reduced tuple did not reproduce the violation: failed=%v kind=%q detail=%q",
			again.Failed, again.Kind, again.Detail)
	}
}
