package workloads_test

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/mesi"
	"repro/internal/system"
	"repro/internal/tsocc"
	"repro/internal/workloads"
)

func TestRegistryHas16Benchmarks(t *testing.T) {
	reg := workloads.Registry()
	if len(reg) != 16 {
		t.Fatalf("registry has %d entries, want 16 (Table 3)", len(reg))
	}
	suites := map[string]int{}
	for _, e := range reg {
		suites[e.Suite]++
		if e.Name == "" || e.Desc == "" || e.Gen == nil {
			t.Fatalf("incomplete entry %+v", e)
		}
	}
	if suites["PARSEC"] != 5 || suites["SPLASH-2"] != 6 || suites["STAMP"] != 5 {
		t.Fatalf("suite breakdown %v, want PARSEC 5 / SPLASH-2 6 / STAMP 5", suites)
	}
}

func TestAllWorkloadsValidate(t *testing.T) {
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 1}
	for _, e := range workloads.Registry() {
		w := e.Gen(p)
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
}

// TestAllWorkloadsFunctional runs every benchmark on MESI and on the
// paper's best TSO-CC configuration, checking each workload's built-in
// functional assertions (mutual exclusion sums, RMW atomicity, barrier
// phase counts).
func TestAllWorkloadsFunctional(t *testing.T) {
	cfg := config.Small(4)
	protos := []system.Protocol{mesi.New(), tsocc.New(config.C12x3())}
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 42}
	for _, e := range workloads.Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			for _, proto := range protos {
				w := e.Gen(p)
				res, err := system.Run(cfg, proto, w)
				if err != nil {
					t.Fatalf("%s: %v", proto.Name(), err)
				}
				if res.CheckErr != nil {
					t.Fatalf("%s: functional check: %v", proto.Name(), res.CheckErr)
				}
				if res.PoolLive != 0 || res.TxLive != 0 {
					t.Fatalf("%s: leak after clean run: %d pooled message(s), %d transaction(s)",
						proto.Name(), res.PoolLive, res.TxLive)
				}
			}
		})
	}
}

// TestWorkloadsAllTSOCCConfigs runs a representative subset of kernels
// across every TSO-CC configuration, including a reset-heavy one.
func TestWorkloadsAllTSOCCConfigs(t *testing.T) {
	cfg := config.Small(4)
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 7}
	names := []string{"x264", "intruder", "lu-noncont", "radix"}
	cfgs := []config.TSOCC{
		config.CCSharedToL2(), config.Basic(), config.NoReset(),
		config.C12x3(), config.C12x0(), config.C9x3(),
		{MaxAccBits: 2, TimestampBits: 5, WriteGroupBits: 1, SharedRO: true, EpochBits: 2, DecayWrites: 16},
	}
	for _, name := range names {
		e := workloads.ByName(name)
		if e == nil {
			t.Fatalf("unknown benchmark %s", name)
		}
		for _, tc := range cfgs {
			w := e.Gen(p)
			res, err := system.Run(cfg, tsocc.New(tc), w)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, tc.Name(), err)
			}
			if res.CheckErr != nil {
				t.Fatalf("%s on %s: %v", name, tc.Name(), res.CheckErr)
			}
			if res.PoolLive != 0 || res.TxLive != 0 {
				t.Fatalf("%s on %s: leak after clean run: %d pooled message(s), %d transaction(s)",
					name, tc.Name(), res.PoolLive, res.TxLive)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := config.Small(4)
	p := workloads.Params{Threads: 4, Scale: 1, Seed: 9}
	e := workloads.ByName("intruder")
	r1, err := system.Run(cfg, tsocc.New(config.C12x3()), e.Gen(p))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := system.Run(cfg, tsocc.New(config.C12x3()), e.Gen(p))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Flits != r2.Flits || r1.Msgs != r2.Msgs {
		t.Fatalf("non-deterministic: run1 (%d cycles, %d flits), run2 (%d cycles, %d flits)",
			r1.Cycles, r1.Flits, r2.Cycles, r2.Flits)
	}
}

// TestNonPositiveThreadsFailValidate pins the error path for a bad core
// count: no generator may panic on zero or negative Threads, and every
// resulting workload must fail Validate (a CLI reports that instead of
// crashing).
func TestNonPositiveThreadsFailValidate(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, threads := range []int{-3, 0} {
			t.Run(fmt.Sprintf("%s/threads%d", name, threads), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("generator panicked: %v", r)
					}
				}()
				w := workloads.ByName(name).Gen(workloads.Params{Threads: threads, Scale: 1, Seed: 1})
				if err := w.Validate(); err == nil {
					t.Fatal("Validate accepted a workload with no threads")
				}
			})
		}
	}
}
