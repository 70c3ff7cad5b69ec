package repro_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_fingerprints.txt from this build's results")

const goldenPath = "testdata/golden_fingerprints.txt"

// goldenFingerprints runs the golden cell set and keys each cell's
// fingerprint as "cores/bench/proto": the full Figure 3-9 grid at 8
// cores plus the 64-core canneal and ssca2 rows, all under the
// tsocc-bench configuration (Table 2 scaled, batched core, seed 1,
// scale 1).
func goldenFingerprints(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, leg := range []struct {
		cores   int
		benches []string
	}{
		{8, nil},
		{64, []string{"canneal", "ssca2"}},
	} {
		cfg := config.Scaled(leg.cores)
		cfg.BatchedCore = true
		p := workloads.Params{Threads: leg.cores, Scale: 1, Seed: 1}
		g, err := harness.RunGrid(cfg, p, nil, leg.benches, nil)
		if err != nil {
			t.Fatalf("%d-core grid: %v", leg.cores, err)
		}
		for _, b := range g.Benchmarks {
			for _, pr := range g.Protocols {
				got[fmt.Sprintf("%d/%s/%s", leg.cores, b, pr)] = fingerprint(g.Get(b, pr))
			}
		}
	}
	return got
}

// TestGoldenFingerprints pins simulated behaviour across changes: every
// golden cell must reproduce its checked-in fingerprint exactly. A
// deliberate behaviour change regenerates the file with
//
//	go test -run TestGoldenFingerprints -update-golden .
//
// and names the change in CHANGES.md.
func TestGoldenFingerprints(t *testing.T) {
	got := goldenFingerprints(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if *updateGolden {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(keys), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		k, fp, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[k] = fp
	}
	bad := 0
	for _, k := range keys {
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: cell missing from %s", k, goldenPath)
		case w != got[k]:
			t.Errorf("%s changed: %s", k, fieldDiff(w, got[k]))
		default:
			continue
		}
		bad++
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: golden cell no longer produced", k)
			bad++
		}
	}
	if bad > 0 {
		t.Logf("%d of %d cells differ; if the change is deliberate, rerun with -update-golden", bad, len(want))
	}
}

// fieldDiff names the fingerprint fields that differ ("cycles 100 -> 104").
func fieldDiff(want, got string) string {
	wf, gf := strings.Fields(want), strings.Fields(got)
	if len(wf) != len(gf) {
		return fmt.Sprintf("\n want %s\n got  %s", want, got)
	}
	var diffs []string
	for i := range wf {
		if wf[i] != gf[i] {
			name, wv, _ := strings.Cut(wf[i], "=")
			_, gv, _ := strings.Cut(gf[i], "=")
			diffs = append(diffs, fmt.Sprintf("%s %s -> %s", name, wv, gv))
		}
	}
	return strings.Join(diffs, ", ")
}
