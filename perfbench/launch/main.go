// Command launch runs one command and reports how long it ran and what
// it used, for perfbench.
//
//	launch <program> [args...]
//
// The command inherits launch's standard input, output and error. When
// it has exited, launch writes one JSON object to file descriptor 3:
// wall time from start to exit, the command's user and system CPU time,
// its peak resident set (KiB) and its exit code (-1 if it could not be
// started).
//
// launch exists because a child's peak resident set, as Linux reports
// it, is never smaller than the resident set of the process that
// started it: perfbench itself grows while it measures, and a small
// process in between keeps that out of the command's figure.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

type report struct {
	WallNs   int64 `json:"wall_ns"`
	UserNs   int64 `json:"user_ns"`
	SysNs    int64 `json:"sys_ns"`
	MaxRSSKB int64 `json:"maxrss_kb"`
	Exit     int   `json:"exit"`
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: launch <program> [args...]")
		os.Exit(2)
	}
	out := os.NewFile(3, "report")
	if out == nil {
		fmt.Fprintln(os.Stderr, "launch: file descriptor 3 is not open")
		os.Exit(2)
	}
	c := exec.Command(os.Args[1], os.Args[2:]...)
	c.Stdin, c.Stdout, c.Stderr = os.Stdin, os.Stdout, os.Stderr
	t0 := time.Now()
	err := c.Run()
	r := report{WallNs: time.Since(t0).Nanoseconds(), Exit: 0}
	var exitErr *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exitErr):
		r.Exit = exitErr.ExitCode()
	default:
		fmt.Fprintln(os.Stderr, "launch:", err)
		r.Exit = -1
	}
	if c.ProcessState != nil {
		if ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.UserNs, r.SysNs, r.MaxRSSKB = ru.Utime.Nano(), ru.Stime.Nano(), ru.Maxrss
		}
	}
	if err := json.NewEncoder(out).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "launch:", err)
		os.Exit(1)
	}
	if err := out.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "launch:", err)
		os.Exit(1)
	}
}
