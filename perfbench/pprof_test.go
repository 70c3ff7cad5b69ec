package main

import (
	"bytes"
	"context"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFuncPackageAndLayer(t *testing.T) {
	for _, c := range []struct{ fn, pkg, layer string }{
		{"repro/internal/sim.(*Engine).dispatch", "repro/internal/sim", "sim"},
		{"repro/internal/sim.(*ShardedEngine).worker.func1", "repro/internal/sim", "sim"},
		{"repro/internal/cpu.(*Core).Tick", "repro/internal/cpu", "cpu"},
		{"repro/internal/tsocc.(*L1).Load", "repro/internal/tsocc", "tsocc"},
		{"repro/internal/mesi.(*L2).Deliver", "repro/internal/mesi", "mesi"},
		{"repro/internal/coherence.(*TxTable).New", "repro/internal/coherence", "coherence"},
		{"repro/internal/coherence.(*EventHeap[go.shape.struct { repro/internal/sim.X int }]).Push",
			"repro/internal/coherence", "coherence"},
		{"repro/internal/memsys.(*Cache).Lookup", "repro/internal/memsys", "memsys"},
		{"repro/internal/mesh.(*Network).Tick", "repro/internal/mesh", "mesh"},
		{"repro/internal/trace.(*ReplayCore).Tick", "repro/internal/trace", "trace"},
		{"repro/internal/system.(*quiesceDoner).Done", "repro/internal/system", "system"},
		{"repro/internal/obs.(*Hist).Observe", "repro/internal/obs", "other"},
		{"repro/internal/workloads.Registry.func2", "repro/internal/workloads", "other"},
		{"runtime.mallocgc", "runtime", "runtime"},
		{"runtime/pprof.(*profMap).lookup", "runtime/pprof", "runtime"},
		{"internal/runtime/atomic.(*Uint32).Load", "internal/runtime/atomic", "runtime"},
		{"sync/atomic.(*Int64).Add", "sync/atomic", "other"},
		{"sort.Slice", "sort", "other"},
		{"main.observeCell", "main", "other"},
	} {
		pkg := funcPackage(c.fn)
		if pkg != c.pkg {
			t.Errorf("funcPackage(%q) = %q, want %q", c.fn, pkg, c.pkg)
		}
		if l := layerOf(pkg); l != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, l, c.layer)
		}
	}
}

// testdata/cpu.pprof is a CPU profile runtime/pprof wrote while a busy
// loop ran under the label perfbench=execute and another ran without it.
func TestDecodeProfileFixture(t *testing.T) {
	samples, err := decodeProfile(readFixture(t, "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	leaf := map[string]int64{}
	var labelled, all int64
	for _, s := range samples {
		all += s.Count
		if s.Labels["perfbench"] == "execute" {
			labelled += s.Count
			leaf[s.Stack[0]] += s.Count
		}
	}
	if labelled != fixtureLabelled || all != fixtureAll {
		t.Errorf("decoded %d samples, %d labelled; want %d and %d", all, labelled, fixtureAll, fixtureLabelled)
	}
	for fn, want := range fixtureLeaves {
		if leaf[fn] != want {
			t.Errorf("leaf %s: %d samples, want %d", fn, leaf[fn], want)
		}
	}
	shares, n := layerShares(samples, "perfbench", "execute")
	if n != fixtureLabelled {
		t.Errorf("layerShares attributed %d samples, want %d", n, fixtureLabelled)
	}
	checkSharesSum(t, shares)
}

// Counts in testdata/cpu.pprof, as "go tool pprof -raw" lists them.
const (
	fixtureAll      = 55 // 35 main.hot + 1 time.runtimeNow labelled; 17 main.cold + 2 runtime.futex not
	fixtureLabelled = 36
)

var fixtureLeaves = map[string]int64{"main.hot": 35, "time.runtimeNow": 1}

func checkSharesSum(t *testing.T, shares map[string]float64) {
	t.Helper()
	var total float64
	for _, l := range profLayers {
		v, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		total += v
	}
	if len(shares) != len(profLayers) || math.Abs(total-100) > 1e-6 {
		t.Errorf("%d shares summing to %v, want %d summing to 100", len(shares), total, len(profLayers))
	}
}

// A profile taken here, with one labelled and one unlabelled busy loop,
// decodes with the labelled samples separated.
func TestDecodeLiveProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin := func(d time.Duration) {
		for end := time.Now().Add(d); time.Now().Before(end); {
		}
	}
	pprof.Do(context.Background(), execLabel, func(context.Context) { spin(300 * time.Millisecond) })
	spin(100 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, n := layerShares(samples, "perfbench", "execute")
	if n == 0 {
		t.Skip("the profiler took no samples")
	}
	checkSharesSum(t, shares)
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage decoded")
	}
}
