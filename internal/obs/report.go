package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// ReportSchemaVersion identifies the RunReport JSON layout. Bump it on any
// incompatible change so downstream consumers (CI's report checks,
// reports kept from earlier runs) can detect what they are reading.
const ReportSchemaVersion = 1

// RunReport is the machine-readable result of one tool invocation:
// what ran, how long each part took, the full metrics snapshot, and the
// Go runtime's view of the process. Everything except the fields listed
// in StripWallTime is deterministic for a fixed seed and trial count.
type RunReport struct {
	// Schema is ReportSchemaVersion.
	Schema int `json:"schema"`
	// Tool names the producing command (e.g. "crbench").
	Tool string `json:"tool"`
	// Seed and Trials echo the run's -seed and -trials flags
	// (Trials 0 = each experiment's paper-faithful default).
	Seed   uint64 `json:"seed"`
	Trials int    `json:"trials"`
	// GoVersion, GOOS, GOARCH, NumCPU, and GOMAXPROCS describe the host.
	// GOMAXPROCS is the effective parallelism at run time (what the
	// detector's template fan-out actually gets), which NumCPU alone
	// cannot tell on a capped container.
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	// StartTime is the wall-clock start in RFC 3339 (wall-time field).
	StartTime string `json:"start_time,omitempty"`
	// WallSeconds is the total elapsed time (wall-time field).
	WallSeconds float64 `json:"wall_seconds"`
	// Experiments holds one entry per experiment, in execution order.
	Experiments []ExperimentReport `json:"experiments"`
	// Metrics is the registry snapshot at the end of the run.
	Metrics Snapshot `json:"metrics"`
	// Runtime samples the Go runtime at the end of the run
	// (wall-time-class field: allocation totals vary with scheduling).
	Runtime RuntimeStats `json:"runtime"`
}

// ExperimentReport is one experiment's share of a run.
type ExperimentReport struct {
	// Name is the experiment's crbench name (e.g. "sec5").
	Name string `json:"name"`
	// WallSeconds is the experiment's elapsed time (wall-time field).
	WallSeconds float64 `json:"wall_seconds"`
	// OutputBytes sizes the rendered table/figure text.
	OutputBytes int `json:"output_bytes"`
	// EngineParallelEfficiency through EngineCriticalShardPct are the
	// sharded-engine scaling diagnosis measured by an attached
	// sim.EngineProfiler, when the experiment ran one (all
	// wall-time-class fields; zero = not profiled). Efficiency is shard
	// busy time over worker-pool capacity in [0, 1]; the stall and drain
	// percentages break down where the remaining wall time went (barrier
	// waits as a share of pool capacity, bus drains as a share of engine
	// wall time); the critical shard is the busiest shard and its share of
	// total busy time in percent.
	EngineParallelEfficiency float64 `json:"engine_parallel_efficiency,omitempty"`
	EngineBarrierStallPct    float64 `json:"engine_barrier_stall_pct,omitempty"`
	EngineDrainPct           float64 `json:"engine_drain_pct,omitempty"`
	EngineCriticalShard      int     `json:"engine_critical_shard,omitempty"`
	EngineCriticalShardPct   float64 `json:"engine_critical_shard_pct,omitempty"`
}

// RuntimeStats is a small, stable subset of runtime.MemStats.
type RuntimeStats struct {
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`
	NumGoroutine    int    `json:"num_goroutine"`
}

// NewRunReport starts a report for the named tool and stamps the host
// fields and start time.
func NewRunReport(tool string, seed uint64, trials int) *RunReport {
	return &RunReport{
		Schema:     ReportSchemaVersion,
		Tool:       tool,
		Seed:       seed,
		Trials:     trials,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		StartTime:  time.Now().UTC().Format(time.RFC3339),
	}
}

// Finish attaches the metrics snapshot, total wall time, and runtime
// sample.
func (r *RunReport) Finish(metrics Snapshot, wall time.Duration) {
	r.Metrics = metrics
	r.WallSeconds = wall.Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Runtime = RuntimeStats{
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		NumGC:           ms.NumGC,
		NumGoroutine:    runtime.NumGoroutine(),
	}
}

// WallTimeMetricSuffix marks metric names that carry wall-clock durations
// (e.g. "experiments.trial_seconds"): everything else in a snapshot is
// deterministic for a fixed seed.
const WallTimeMetricSuffix = "_seconds"

// LiveMetricSuffix marks metrics that exist only to drive live dashboards
// (e.g. the campaign progress gauges crtop reads). Their values race
// between concurrent workers by design, so StripWallTime removes them
// like wall-time metrics.
const LiveMetricSuffix = "_live"

// strippedMetric reports whether a metric name is removed by
// StripWallTime.
func strippedMetric(name string) bool {
	return strings.HasSuffix(name, WallTimeMetricSuffix) || strings.HasSuffix(name, LiveMetricSuffix)
}

// StripWallTime returns a deep copy of the report with every
// non-deterministic field zeroed: start time, wall times, runtime stats,
// and any metric whose name ends in WallTimeMetricSuffix or
// LiveMetricSuffix. Two runs with the same seed, trials, and experiment
// list must produce byte-identical JSON for the stripped report — the
// determinism contract crbench's tests enforce.
func (r *RunReport) StripWallTime() *RunReport {
	out := *r
	out.StartTime = ""
	out.WallSeconds = 0
	out.Runtime = RuntimeStats{}
	out.Experiments = make([]ExperimentReport, len(r.Experiments))
	for i, e := range r.Experiments {
		e.WallSeconds = 0
		e.EngineParallelEfficiency = 0
		e.EngineBarrierStallPct = 0
		e.EngineDrainPct = 0
		e.EngineCriticalShard = 0
		e.EngineCriticalShardPct = 0
		out.Experiments[i] = e
	}
	m := Snapshot{}
	for _, c := range r.Metrics.Counters {
		if !strippedMetric(c.Name) {
			m.Counters = append(m.Counters, c)
		}
	}
	for _, g := range r.Metrics.Gauges {
		if !strippedMetric(g.Name) {
			m.Gauges = append(m.Gauges, g)
		}
	}
	for _, h := range r.Metrics.Histograms {
		if !strippedMetric(h.Name) {
			m.Histograms = append(m.Histograms, h)
		}
	}
	out.Metrics = m
	return &out
}

// Validate checks the structural invariants a well-formed report must
// satisfy; the reportcheck tool and the CI smoke step build on it.
func (r *RunReport) Validate() error {
	if r.Schema != ReportSchemaVersion {
		return fmt.Errorf("obs: report schema %d, want %d", r.Schema, ReportSchemaVersion)
	}
	if r.Tool == "" {
		return fmt.Errorf("obs: report has no tool name")
	}
	if len(r.Experiments) == 0 {
		return fmt.Errorf("obs: report has no experiments")
	}
	for i, e := range r.Experiments {
		if e.Name == "" {
			return fmt.Errorf("obs: experiment %d has no name", i)
		}
		if e.WallSeconds < 0 {
			return fmt.Errorf("obs: experiment %q has negative wall time", e.Name)
		}
	}
	for _, h := range r.Metrics.Histograms {
		var n int64
		for _, b := range h.Buckets {
			n += b.Count
		}
		if n != h.Count {
			return fmt.Errorf("obs: histogram %q bucket counts sum to %d, count is %d",
				h.Name, n, h.Count)
		}
	}
	return nil
}

// Encode writes the report as indented JSON.
func (r *RunReport) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile atomically writes the report next to the given path (temp
// file + rename), so a crash never leaves a truncated report behind.
func (r *RunReport) WriteFile(path string) error {
	tmp, err := os.CreateTemp(dirOf(path), ".report-*.json")
	if err != nil {
		return err
	}
	if err := r.Encode(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadReportFile parses a report written by WriteFile/Encode.
func ReadReportFile(path string) (*RunReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: parsing %s: %w", path, err)
	}
	return &r, nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i+1]
		}
	}
	return "."
}
