package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixtures under testdata are verbatim outputs of the CLIs:
//
//	sim_canneal.txt   tsocc-sim -bench canneal -cores 8 -seed 1 (stdout)
//	replay_mesi.txt   tsocc-trace replay -i <ssca2 trace> -proto MESI (stdout)
//	grid_stderr.txt   tsocc-bench -cores 8 -seed 1 (stderr)
//
// A change to a CLI's output format must fail here, not turn into
// zeros in the benchmark's report.

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSimCyclesParsesSummaryAndCheckLine(t *testing.T) {
	out := readFixture(t, "sim_canneal.txt")
	cyc, rows, err := simCycles(out, true)
	if err != nil {
		t.Fatal(err)
	}
	if cyc != 49163 {
		t.Errorf("cycles = %d, want 49163", cyc)
	}
	for row, want := range map[string]int64{"loads": 3071, "stores": 1930, "rmws": 72, "L1 accesses": 5073, "fence": 8} {
		if rows[row] != want {
			t.Errorf("row %q = %d, want %d", row, rows[row], want)
		}
	}
}

func TestSimCyclesRejectsMissingCheckLine(t *testing.T) {
	out := readFixture(t, "sim_canneal.txt")
	trimmed := strings.Replace(string(out), "functional check: ok", "", 1)
	if _, _, err := simCycles([]byte(trimmed), true); err == nil {
		t.Fatal("output without the functional-check line was accepted")
	}
	// A replay prints no check line and is parsed without one.
	if _, _, err := simCycles([]byte(trimmed), false); err != nil {
		t.Fatal(err)
	}
}

func TestSimCyclesRejectsOutputWithoutCycles(t *testing.T) {
	for _, out := range []string{"", "functional check: ok\n", "cycles  many\nfunctional check: ok\n"} {
		if _, _, err := simCycles([]byte(out), true); err == nil {
			t.Errorf("accepted %q", out)
		}
	}
}

func TestReplaySummaryRows(t *testing.T) {
	cyc, rows, err := simCycles(readFixture(t, "replay_mesi.txt"), false)
	if err != nil {
		t.Fatal(err)
	}
	if cyc != 14660 {
		t.Errorf("cycles = %d, want 14660", cyc)
	}
	if got := rows["loads"] + rows["stores"] + rows["rmws"]; got != 8111 {
		t.Errorf("memory ops = %d, want 8111", got)
	}
}

func TestGridCyclesParsesEveryCell(t *testing.T) {
	cells, err := gridCycles(readFixture(t, "grid_stderr.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 7*16 {
		t.Fatalf("parsed %d cells, want 112", len(cells))
	}
	for key, want := range map[string]int64{"canneal/MESI": 49248, "x264/TSO-CC-4-12-3": 7689} {
		if cells[key] != want {
			t.Errorf("%s = %d cycles, want %d", key, cells[key], want)
		}
	}
}

func TestGridCyclesRejectsIncompleteGrid(t *testing.T) {
	out := string(readFixture(t, "grid_stderr.txt"))
	i := strings.Index(out, "grid complete in")
	if _, err := gridCycles([]byte(out[:i])); err == nil {
		t.Fatal("grid output without the grid-complete line was accepted")
	}
	dup := out[:i] + strings.SplitAfter(out, "\n")[0] + out[i:]
	if _, err := gridCycles([]byte(dup)); err == nil {
		t.Fatal("a cell reported twice was accepted")
	}
}

func TestSameCycles(t *testing.T) {
	want := map[string]int64{"a/MESI": 10, "b/MESI": 20}
	if err := sameCycles("ref", want, map[string]int64{"a/MESI": 10, "b/MESI": 20}); err != nil {
		t.Fatal(err)
	}
	for _, got := range []map[string]int64{
		{"a/MESI": 10, "b/MESI": 21},
		{"a/MESI": 10},
		{"a/MESI": 10, "b/MESI": 20, "c/MESI": 1},
	} {
		if err := sameCycles("ref", want, got); err == nil {
			t.Errorf("%v accepted as equal to %v", got, want)
		}
	}
}

func TestParseCPUStat(t *testing.T) {
	steal, total, err := parseCPUStat("cpu  389300 0 17230 320184 207 0 1796 19846 0 0")
	if err != nil {
		t.Fatal(err)
	}
	if steal != 19846 || total != 389300+17230+320184+207+1796+19846 {
		t.Errorf("steal %d total %d", steal, total)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if _, _, err := parseCPUStat(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
