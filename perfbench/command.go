package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// cmdRun is one execution of a user-facing command.
type cmdRun struct {
	Wall   time.Duration
	CPU    time.Duration // user + system time of the command
	RSSMiB float64       // the command's peak resident set
	Steal  time.Duration // host steal time while it ran, summed over vCPUs
	Stdout []byte
	Stderr []byte
	Err    error // non-nil when the command could not run or exited non-zero
}

// launchReport is what the launch helper (launch/main.go) writes to
// file descriptor 3 once the command has exited.
type launchReport struct {
	WallNs   int64 `json:"wall_ns"`
	UserNs   int64 `json:"user_ns"`
	SysNs    int64 `json:"sys_ns"`
	MaxRSSKB int64 `json:"maxrss_kb"`
	Exit     int   `json:"exit"`
}

// runCommand executes argv to completion through the launch helper,
// which times it from process start to exit and reads its resource use.
// Nothing else runs in the benchmark while it does.
func (e *env) runCommand(argv []string) cmdRun {
	var stdout, stderr bytes.Buffer
	var r cmdRun
	fail := func(err error) cmdRun {
		r.Stdout, r.Stderr = stdout.Bytes(), stderr.Bytes()
		r.Err = fmt.Errorf("%s: %w: %s", strings.Join(argv, " "), err, lastLine(stderr.Bytes()))
		return r
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return fail(err)
	}
	defer pr.Close()
	c := exec.Command(e.bin("launch"), argv...)
	c.Stdout, c.Stderr = &stdout, &stderr
	c.ExtraFiles = []*os.File{pw}
	err = c.Start()
	pw.Close() // the helper holds the write end now
	if err != nil {
		return fail(err)
	}
	rep, rerr := io.ReadAll(pr)
	if err := c.Wait(); err != nil {
		return fail(fmt.Errorf("launch: %w", err))
	}
	if rerr != nil {
		return fail(rerr)
	}
	var lr launchReport
	if err := json.Unmarshal(rep, &lr); err != nil {
		return fail(fmt.Errorf("launch report: %w", err))
	}
	r = cmdRun{Wall: time.Duration(lr.WallNs), CPU: time.Duration(lr.UserNs + lr.SysNs),
		RSSMiB: float64(lr.MaxRSSKB) / 1024, Stdout: stdout.Bytes(), Stderr: stderr.Bytes()}
	if lr.Exit != 0 {
		return fail(fmt.Errorf("exit code %d", lr.Exit))
	}
	return r
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// parseSummary reads the run summary table that tsocc-sim and
// tsocc-trace print (system.Result.Summary) into its rows, keyed by the
// row label ("cycles", "loads", "L1 misses", ...). Only rows whose value
// is a whole number are kept.
func parseSummary(out []byte) map[string]int64 {
	rows := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 {
			continue
		}
		v, err := strconv.ParseInt(f[len(f)-1], 10, 64)
		if err != nil {
			continue
		}
		rows[strings.Join(f[:len(f)-1], " ")] = v
	}
	return rows
}

// simCycles parses a single-run summary (tsocc-sim, tsocc-trace
// replay/record). wantCheck demands the "functional check: ok" line
// tsocc-sim prints last after a checked run.
func simCycles(out []byte, wantCheck bool) (int64, map[string]int64, error) {
	rows := parseSummary(out)
	cyc, ok := rows["cycles"]
	if !ok || cyc <= 0 {
		return 0, nil, fmt.Errorf("output has no cycles row")
	}
	if wantCheck && !hasLine(out, "functional check: ok") {
		return 0, nil, fmt.Errorf("output lacks the functional-check line")
	}
	return cyc, rows, nil
}

func hasLine(out []byte, line string) bool {
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == line {
			return true
		}
	}
	return false
}

// gridCycles parses tsocc-bench's per-cell progress lines
//
//	canneal        TSO-CC-4-12-3          123456 cycles       789012 flit-hops
//
// into cycles keyed by "bench/proto", and demands the "grid complete"
// line the command prints once every cell has passed its functional
// check.
func gridCycles(stderr []byte) (map[string]int64, error) {
	cells := map[string]int64{}
	complete := false
	sc := bufio.NewScanner(bytes.NewReader(stderr))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "grid complete in ") {
			complete = true
			continue
		}
		f := strings.Fields(line)
		if len(f) != 6 || f[3] != "cycles" || f[5] != "flit-hops" {
			continue
		}
		cyc, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("grid line %q: %w", line, err)
		}
		key := f[0] + "/" + f[1]
		if _, dup := cells[key]; dup {
			return nil, fmt.Errorf("grid cell %s reported twice", key)
		}
		cells[key] = cyc
	}
	if !complete {
		return nil, fmt.Errorf("output lacks the grid-complete line")
	}
	return cells, nil
}
