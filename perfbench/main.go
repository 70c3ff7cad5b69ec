// Command perfbench is the repository's end-to-end benchmark. It runs
// the simulator's own CLIs the way a user does (default flags, tracing
// off) and reports what the user waits for; a separate traced
// in-process run splits that time by layer. README.md lists every
// metric, the workloads and why each was chosen.
//
// It is started through run.sh, which builds the CLIs and this program
// from the checkout first:
//
//	bash perfbench/run.sh --workload canneal64 --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records
// the run's metadata and sample counts.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// modelNote travels with every result: the cycle counts come from a
// model, not a machine.
const modelNote = "sim_cycles are simulated cycles of an architectural model that has not been validated against hardware"

// Set-up is timed several times per run and the median reported: at
// least setupMinReps times, more until setupMinTime has been spent.
const (
	setupMinReps = 5
	setupMaxReps = 200
	setupMinTime = time.Second
	// minRepeats is the fewest command runs a measurement takes, even
	// when one of them outlasts --seconds.
	minRepeats = 3
)

// env is what a workload's set-up needs to know about this run.
type env struct {
	binDir string
	work   string // per-run working directory inside the checkout
	seed   uint64
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }
func (e *env) seedStr() string        { return strconv.FormatUint(e.seed, 10) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta is the line before the result: where and how it was measured.
type meta struct {
	Workload      string             `json:"workload"`
	Mode          string             `json:"mode"`
	Seed          uint64             `json:"seed"`
	Seconds       int                `json:"seconds"`
	Command       string             `json:"command"`
	Commit        string             `json:"commit,omitempty"`
	SourceSHA256  string             `json:"source_sha256"`
	GoVersion     string             `json:"go_version"`
	NProc         int                `json:"nproc"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	Shards        int                `json:"shards"`
	Model         string             `json:"model"`
	Samples       map[string]summary `json:"samples,omitempty"`
	NotApplicable []string           `json:"not_applicable,omitempty"`
	// HostStealPct is the share of the host's CPU time the hypervisor
	// gave to other guests while the command ran (/proc/stat), which
	// explains a slow run on a shared machine; -1 where unavailable.
	HostStealPct float64  `json:"host_steal_pct"`
	ProfSamples  int64    `json:"prof_samples,omitempty"`
	TracedPasses int      `json:"traced_passes,omitempty"`
	Failures     []string `json:"failures,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: grid8, canneal64 or replay-mesi")
	seed := fl.Uint64("seed", 1, "workload seed, passed to the CLIs' -seed")
	seconds := fl.Int("seconds", 35, "how long the command is measured, in seconds")
	traced := fl.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	binDir := fl.String("bin", "", "directory holding the built tsocc-bench, tsocc-sim and tsocc-trace")
	work := fl.String("work", "", "working directory for trace files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) || *binDir == "" || *work == "" {
		fmt.Fprintln(stderr, "perfbench: need -workload (grid8|canneal64|replay-mesi), -seconds >= 1, -trace 0|1, -bin and -work")
		return 2
	}
	e := &env{binDir: *binDir, seed: *seed,
		work: filepath.Join(*work, fmt.Sprintf("%s-%d", w.name, os.Getpid()))}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.work)

	argv, cells, err := w.prepare(e)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	m := &meta{Workload: w.name, Seed: *seed, Seconds: *seconds,
		Command: strings.Join(append([]string{filepath.Base(argv[0])}, argv[1:]...), " "),
		Commit:  gitCommit(), SourceSHA256: sourceDigest(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Model: modelNote}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	if *traced == 0 {
		m.Mode = "end_to_end"
		res, err = endToEnd(e, w, argv, cells, budget, m)
	} else {
		m.Mode = "traced"
		res, err = perLayer(e, w, argv, cells, budget, m)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]*meta{"perfbench": m}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// gate runs the command repeatedly for the budget (at least minRepeats
// times) and checks each run: it must exit 0, print its check line, and
// report per-cell cycles equal to the first run's and to the in-process
// reference (when that run succeeded). It returns the passing runs.
func gate(e *env, w *workload, argv []string, cells []cell, ref map[string]int64, budget time.Duration, m *meta) (ok []cmdRun, attempted int, first map[string]int64) {
	steal0, total0, statErr := cpuStat()
	defer func() {
		steal1, total1, err := cpuStat()
		m.HostStealPct = -1
		if statErr == nil && err == nil && total1 > total0 {
			m.HostStealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
		}
	}()
	deadline := time.Now().Add(budget)
	for attempted < minRepeats || time.Now().Before(deadline) {
		attempted++
		s0, ok0 := stealNow()
		r := e.runCommand(argv)
		if s1, ok1 := stealNow(); ok0 && ok1 {
			r.Steal = s1 - s0
		}
		err := r.Err
		var got map[string]int64
		if err == nil {
			got, err = w.cycles(r, cells)
		}
		if err == nil && first == nil {
			first = got
		}
		if err == nil {
			err = sameCycles("an earlier run", first, got)
		}
		if err == nil && ref != nil {
			err = sameCycles("the in-process run", ref, got)
		}
		if err != nil {
			m.Failures = append(m.Failures, fmt.Sprintf("run %d: %v", attempted, err))
			continue
		}
		ok = append(ok, r)
	}
	return ok, attempted, first
}

// sameCycles reports the cells on which got differs from want.
func sameCycles(what string, want, got map[string]int64) error {
	var diffs []string
	for k, v := range want {
		if g, ok := got[k]; !ok {
			diffs = append(diffs, k+" missing")
		} else if g != v {
			diffs = append(diffs, fmt.Sprintf("%s %d cycles, %s %d", k, g, what, v))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, k+" unexpected")
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	if len(diffs) > 3 {
		diffs = append(diffs[:3], fmt.Sprintf("and %d more", len(diffs)-3))
	}
	return fmt.Errorf("cycles differ from %s: %s", what, strings.Join(diffs, "; "))
}

func cellCycles(runs []*cellRun) map[string]int64 {
	out := make(map[string]int64, len(runs))
	for _, r := range runs {
		out[r.key] = r.cycles
	}
	return out
}

func sum(cells map[string]int64) float64 {
	var s int64
	for _, v := range cells {
		s += v
	}
	return float64(s)
}

// endToEnd measures the user-facing command: set-up time in-process,
// one observed in-process run as the cycle reference, then the command
// itself for the budget.
func endToEnd(e *env, w *workload, argv []string, cells []cell, budget time.Duration, m *meta) (*result, error) {
	var setup []float64
	var spent time.Duration
	s0, ok0 := stealNow()
	cpu0, t0 := selfCPU(), time.Now()
	for len(setup) < setupMaxReps && (len(setup) < setupMinReps || spent < setupMinTime) {
		d, err := setupOnce(cells)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
		spent += d
	}
	// The repetitions are too short to read steal around each, so the
	// share the host took over the whole loop scales their median.
	setupShare := 1.0
	if s1, ok1 := stealNow(); ok0 && ok1 {
		loop := time.Since(t0)
		setupShare = float64(unstolen(loop, selfCPU()-cpu0, s1-s0, runtime.NumCPU())) / float64(loop)
	}

	attempted, failed := 1, 0
	var ref map[string]int64
	runs, err := observeAll(cells)
	if err != nil {
		failed++
		m.Failures = append(m.Failures, "in-process run: "+err.Error())
	} else {
		ref = cellCycles(runs)
		m.Shards = runs[0].shards
	}

	ok, n, first := gate(e, w, argv, cells, ref, budget, m)
	attempted += n
	failed += n - len(ok)
	var wall, rawWall, cpu, rss []float64
	for _, r := range ok {
		wall = append(wall, unstolen(r.Wall, r.CPU, r.Steal, runtime.NumCPU()).Seconds())
		rawWall = append(rawWall, r.Wall.Seconds())
		cpu = append(cpu, r.CPU.Seconds())
		rss = append(rss, r.RSSMiB)
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("every run of %s failed: %s", w.name, strings.Join(m.Failures, "; "))
	}
	cycles := ref
	if cycles == nil {
		cycles = first
	}
	m.Samples = map[string]summary{"wall_s": summarize(wall), "wall_with_steal_s": summarize(rawWall),
		"cpu_s": summarize(cpu), "peak_rss_mb": summarize(rss), "setup_s": summarize(setup)}
	metrics, err := report(endToEndMetrics, map[string]float64{
		"wall_s":      median(wall),
		"cpu_s":       median(cpu),
		"setup_s":     median(setup) * setupShare,
		"peak_rss_mb": median(rss),
		"sim_cycles":  sum(cycles),
		"passed_pct":  100 * float64(attempted-failed) / float64(attempted),
	})
	if err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// perLayer runs the traced in-process run, the isolated layer probes
// and, for the tracing overhead and the correctness gate, the untraced
// command. The traced run and the command share the budget.
func perLayer(e *env, w *workload, argv []string, cells []cell, budget time.Duration, m *meta) (*result, error) {
	t, err := runTraced(cells, budget/2)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	m.Shards = t.runs[0].shards
	m.ProfSamples, m.TracedPasses = t.profSamples, t.passes
	hit, err := l1HitNs(cells[0].proto)
	if err != nil {
		return nil, err
	}
	deliver := meshDeliverNs(t.runs[0].cores)

	ok, attempted, _ := gate(e, w, argv, cells, cellCycles(t.runs), budget/2, m)
	attempted++ // the traced run
	failed := attempted - 1 - len(ok)
	if len(ok) == 0 {
		return nil, fmt.Errorf("every run of %s failed: %s", w.name, strings.Join(m.Failures, "; "))
	}
	var wall []float64
	for _, r := range ok {
		wall = append(wall, r.Wall.Seconds())
	}
	m.Samples = map[string]summary{"wall_s": summarize(wall)}
	rep := layerMetrics(t, hit, deliver, median(wall))
	sort.Strings(rep.na)
	m.NotApplicable = rep.na
	metrics, err := report(layerMetricDefs, rep.vals)
	if err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// cpuStat reads the host-wide steal and total CPU time, in clock ticks,
// from /proc/stat.
func cpuStat() (steal, total uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return parseCPUStat(line)
}

// userHZ is the unit of the times in /proc/stat (USER_HZ, 100 on Linux).
const userHZ = 100

// stealNow returns the host's cumulative steal time, summed over the
// vCPUs; ok is false where /proc/stat cannot be read.
func stealNow() (steal time.Duration, ok bool) {
	ticks, _, err := cpuStat()
	return time.Duration(ticks) * time.Second / userHZ, err == nil
}

// selfCPU returns the user and system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// unstolen returns the part of an interval of length wall that the
// hypervisor left to this machine: wall less the steal time the host
// reported over the interval (summed over all vCPUs), shared over the
// vCPUs the work kept busy, which is its CPU time over wall, from one to
// vcpus. On a shared virtual machine steal comes and goes for minutes at
// a time and would otherwise set the run-to-run spread of every timing.
// Without steal it returns wall, and so it does when the steal exceeds
// what the busy vCPUs could have lost.
func unstolen(wall, cpu, steal time.Duration, vcpus int) time.Duration {
	if wall <= 0 || steal <= 0 {
		return wall
	}
	busy := math.Min(math.Max(float64(cpu)/float64(wall), 1), float64(vcpus))
	lost := time.Duration(float64(steal) / busy)
	if lost >= wall {
		return wall
	}
	return wall - lost
}

// parseCPUStat parses the aggregate "cpu" line of /proc/stat: user nice
// system idle iowait irq softirq steal, then guest times that user
// already includes.
func parseCPUStat(line string) (steal, total uint64, err error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected line %q", line)
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// gitCommit names the checked-out commit when the checkout is a git
// work tree; the benchmark also runs in exported trees, where
// sourceDigest identifies the code instead.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	if err != nil {
		return ""
	}
	f := strings.Fields(string(out))
	cwd, err := os.Getwd()
	if err != nil || len(f) != 2 || f[0] != cwd {
		return "" // a repository enclosing the checkout, not the checkout
	}
	return f[1]
}

// sourceDigest hashes the checkout's Go sources and module files (not
// the build directory), identifying the code that was measured.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry leaves the digest without it
		}
		if d.IsDir() {
			if base := d.Name(); path != "." && (strings.HasPrefix(base, ".") || base == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
