// Package benchfmt defines the BENCH_*.json simulator-throughput
// snapshot schema, shared by its writer (`tsocc-bench -perf`) and its
// reader (`tsocc-benchdiff`). Keeping one definition means a field
// rename cannot silently decode to zero values on the side that gates
// CI regressions.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
)

// Host records the measuring machine. Absolute ns/cycle numbers only
// transfer within one host; the engine-mode speedup ratios are
// meaningful anywhere.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// ChecksEnabled records whether runtime invariant oracles
	// (config.System.Checks) were active during measurement; checked
	// numbers are not comparable against unchecked baselines.
	ChecksEnabled bool `json:"checks_enabled"`
}

// Record is one benchmark × protocol measurement. Three configurations
// are timed: the per-cycle conformance engine, the event engine with
// the instruction-at-a-time core, and the event engine with the
// batched core (the production default, which fills the headline
// fields).
type Record struct {
	Benchmark       string  `json:"benchmark"`
	Protocol        string  `json:"protocol"`
	Cores           int     `json:"cores"`
	SimCycles       int64   `json:"sim_cycles"`
	WallNsPerCycle  float64 `json:"wall_ns_percycle_engine"`
	WallNsUnbatched float64 `json:"wall_ns_event_unbatched"`
	WallNsEvent     float64 `json:"wall_ns_event_engine"`
	CyclesPerSec    float64 `json:"sim_cycles_per_sec"`
	HostNsPerCycle  float64 `json:"host_ns_per_sim_cycle"`
	SkippedPct      float64 `json:"idle_skipped_pct"`
	Speedup         float64 `json:"event_vs_percycle_speedup"`
	BatchedSpeedup  float64 `json:"batched_vs_unbatched_speedup"`

	// Sharded-engine throughput: the batched event configuration re-timed
	// with the wake-set engine sharded across goroutines. Shards records
	// the shard count the parallel leg ran with, GOMAXPROCS the per-record
	// cap in effect while timing it (the Host value can differ when a
	// snapshot merges runs), and ParallelSpeedup the wall-time ratio
	// serial/parallel — meaningful only when GOMAXPROCS >= Shards. Zero
	// values mean the parallel leg was not timed (pre-PR-7 snapshot).
	Shards          int     `json:"shards,omitempty"`
	GOMAXPROCS      int     `json:"gomaxprocs,omitempty"`
	WallNsParallel  float64 `json:"wall_ns_parallel_engine,omitempty"`
	ParallelSpeedup float64 `json:"parallel_vs_serial_speedup,omitempty"`

	// DefaultShards is the shard count the run's -shards setting (0
	// unless given) resolves to: the engine a CLI run with the same flag
	// builds. 1 is the serial engine. Zero means the snapshot predates
	// the field.
	DefaultShards int `json:"default_shards,omitempty"`

	// Trace-subsystem throughput: the benchmark is recorded once, then
	// its trace is replayed (event engine) and round-tripped through
	// the codec.
	TraceOps          int64   `json:"trace_ops"`
	TraceBytesPerOp   float64 `json:"trace_bytes_per_op"`
	TraceReplayOpsSec float64 `json:"trace_replay_ops_per_sec"`
	TraceCodecMBps    float64 `json:"trace_codec_mb_per_sec"`

	// Observability series, measured on one extra metrics-armed run of
	// the batched event configuration (simulated-time quantities, so
	// they transfer across hosts). Zero values mean the snapshot
	// predates the observability layer (pre-PR-9); tsocc-benchdiff
	// skips the comparison rather than reporting a regression to zero.
	TxLatencyMean     float64 `json:"tx_latency_mean_cycles,omitempty"`
	L1MissLatencyMean float64 `json:"l1_miss_latency_mean_cycles,omitempty"`
	StallCycles       int64   `json:"stall_cycles_total,omitempty"`
}

// ScalingPoint is one sample of the scaling-curve leg: a benchmark ×
// protocol cell re-measured at a given core count (the Large presets'
// Table 2 per-tile shape). The curve answers "how does host-ns per
// simulated cycle grow with machine size" — flat is the goal — so the
// essential fields are Cores and the per-engine wall numbers; the
// sharded column is present only when the leg ran with >1 shard.
type ScalingPoint struct {
	Benchmark      string  `json:"benchmark"`
	Protocol       string  `json:"protocol"`
	Cores          int     `json:"cores"`
	SimCycles      int64   `json:"sim_cycles"`
	WallNsPerCycle float64 `json:"wall_ns_percycle_engine"`
	WallNsEvent    float64 `json:"wall_ns_event_engine"`
	Speedup        float64 `json:"event_vs_percycle_speedup"`
	Shards         int     `json:"shards,omitempty"`
	GOMAXPROCS     int     `json:"gomaxprocs,omitempty"`
	WallNsParallel float64 `json:"wall_ns_parallel_engine,omitempty"`
}

// Snapshot is the -perf output document. (Snapshots before PR 5 were a
// bare Record array; Load reads both shapes. Scaling arrived in PR 10
// and is empty in older snapshots.)
type Snapshot struct {
	Host    Host           `json:"host"`
	Results []Record       `json:"results"`
	Scaling []ScalingPoint `json:"scaling,omitempty"`
}

// Key names a record within a snapshot.
func (r Record) Key() string { return r.Benchmark + "/" + r.Protocol }

// Load reads a snapshot file in either shape: the current
// {host, results} document or the legacy bare record array. The shape
// is decided by the document's top-level JSON type, so an empty
// results array is still a valid (empty) snapshot.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	for _, b := range data {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			var s Snapshot
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			return &s, nil
		case '[':
			var recs []Record
			if err := json.Unmarshal(data, &recs); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			return &Snapshot{Results: recs}, nil
		default:
			return nil, fmt.Errorf("%s: not a perf snapshot (top-level %q)", path, b)
		}
	}
	return nil, fmt.Errorf("%s: empty file", path)
}
