package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/obs"
)

// liveReport builds a report shaped like a real crbench smoke run.
func liveReport() *obs.RunReport {
	reg := obs.NewRegistry()
	reg.Count("sim.frames_on_air", 42)
	reg.Count("experiments.trials", 15)
	reg.Observe("experiments.trial_seconds", 0.002)
	r := obs.NewRunReport("crbench", 1, 3)
	r.Experiments = []obs.ExperimentReport{{Name: "sec5", WallSeconds: 0.1, OutputBytes: 100}}
	r.Finish(reg.Snapshot(), 120*time.Millisecond)
	return r
}

func writeReport(t *testing.T, r *obs.RunReport) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckAcceptsLiveReport(t *testing.T) {
	if err := check(writeReport(t, liveReport())); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejectsDefects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*obs.RunReport)
		want   string
	}{
		{"no experiments", func(r *obs.RunReport) { r.Experiments = nil }, "no experiments"},
		{"zero wall time", func(r *obs.RunReport) { r.WallSeconds = 0 }, "wall_seconds"},
		{"no frames", func(r *obs.RunReport) {
			m := r.Metrics.Counters[:0]
			for _, c := range r.Metrics.Counters {
				if c.Name != "sim.frames_on_air" {
					m = append(m, c)
				}
			}
			r.Metrics.Counters = m
		}, "sim.frames_on_air"},
		{"no trial timing", func(r *obs.RunReport) { r.Metrics.Histograms = nil }, "trial_seconds"},
		{"wrong schema", func(r *obs.RunReport) { r.Schema = 99 }, "schema"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := liveReport()
			tc.mutate(r)
			err := check(writeReport(t, r))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// benchmarkPath is the repository's benchmark declaration; the compare
// tests gate against its real bounds.
var benchmarkPath = filepath.Join("..", "..", "BENCHMARK.json")

// synthRun is one synthetic perfbench result line.
type synthRun struct {
	workload          string
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
}

// bareRun is a healthy -trace 0 run whose timings are scaled by drift,
// the host-speed wobble between runs.
func bareRun(workload string, drift float64) synthRun {
	return synthRun{workload: workload, correct: true, attempted: 1000, metrics: map[string]float64{
		"ops_per_s": 100 * drift, "op_ms_p50": 10 / drift, "op_ms_p99": 15 / drift,
		"found_ratio": 0.99, "err_m": 0.04, "alloc_b_per_op": 3000, "heap_mb": 20, "setup_s": 0.02 / drift,
	}}
}

// tracedRun is a healthy -trace 1 fullbank run.
func tracedRun(drift float64) synthRun {
	return synthRun{workload: "fullbank", correct: true, attempted: 500, metrics: map[string]float64{
		"core.detect_ms": 90 / drift, "dsp.spectral_scan_us": 80 / drift, "dsp.upsample_us": 30 / drift,
		"detector.iterations": 10.6, "dsp.spectral_scan_share": 1.1, "trace_overhead": 0.002,
		"sim.round_us": 0, "sim.engine_parallel_efficiency": 0,
	}}
}

// writeRuns writes runs in the layout scripts/perfgate.sh records.
func writeRuns(t *testing.T, runs []synthRun) string {
	t.Helper()
	var b strings.Builder
	for _, r := range runs {
		metrics := map[string]map[string]float64{}
		for name, v := range r.metrics {
			metrics[name] = map[string]float64{"value": v}
		}
		line, err := json.Marshal(map[string]any{"workload": r.workload, "run": map[string]any{
			"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
		}})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// drifts is the host-speed wobble of three pairs; a pair shares its
// drift, as alternating runs and perfbench's host-speed scaling make it.
var drifts = []float64{1, 1.04, 0.97}

// pairedRuns returns K = 3 runs of session and fullbank, each passed
// through edit (nil keeps it as it is).
func pairedRuns(edit func(r *synthRun)) []synthRun {
	var runs []synthRun
	for _, w := range []string{"session", "fullbank"} {
		for _, d := range drifts {
			r := bareRun(w, d)
			if edit != nil {
				edit(&r)
			}
			runs = append(runs, r)
		}
	}
	return runs
}

// scale multiplies metric by f on the fullbank runs.
func scale(metric string, f float64) func(r *synthRun) {
	return func(r *synthRun) {
		if r.workload == "fullbank" {
			r.metrics[metric] *= f
		}
	}
}

func TestComparePairedRuns(t *testing.T) {
	cases := []struct {
		name   string
		change []synthRun
		want   []string // nil = pass; else every string must appear in the error
	}{
		{"identical sides pass", pairedRuns(nil), nil},
		{"ops_per_s -30% fails", pairedRuns(scale("ops_per_s", 0.70)), []string{"fullbank", "ops_per_s", "bound 25%"}},
		{"ops_per_s -20% passes within 0.25", pairedRuns(scale("ops_per_s", 0.80)), nil},
		{"alloc_b_per_op +20% fails beyond 0.15", pairedRuns(scale("alloc_b_per_op", 1.20)), []string{"fullbank", "alloc_b_per_op", "bound 15%"}},
		{"alloc_b_per_op +10% passes", pairedRuns(scale("alloc_b_per_op", 1.10)), nil},
		{"found_ratio drop beyond 0.1 fails", pairedRuns(scale("found_ratio", 0.85)), []string{"fullbank", "found_ratio"}},
		{"higher failed share fails", pairedRuns(func(r *synthRun) {
			if r.workload == "session" {
				r.failed = 3
			}
		}), []string{"session", "failed share"}},
		{"correct false fails", pairedRuns(func(r *synthRun) {
			if r.workload == "session" && r.metrics["ops_per_s"] > 101 {
				r.correct = false
			}
		}), []string{"session pair 2 reported correct: false (base true, change false)"}},
		{"workload on one side only fails", append(pairedRuns(nil), bareRun("swarm", 1)), []string{"swarm has 0 base runs and 1 change runs"}},
		{"workload missing from the change fails", pairedRuns(nil)[:3], []string{"fullbank has 3 base runs and 0 change runs"}},
		{"unpaired runs fail", pairedRuns(nil)[:5], []string{"fullbank has 3 base runs and 2 change runs"}},
	}
	basePath := writeRuns(t, pairedRuns(nil))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := compare(benchmarkPath, basePath, writeRuns(t, tc.change), &out)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("compare failed: %v\n%s", err, out.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("compare passed, want failure naming %q\n%s", tc.want, out.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("err = %v, want mention of %q", err, w)
				}
			}
			// perfgate.sh re-runs the workloads its FAIL lines name.
			if !strings.Contains(out.String(), "FAIL "+strings.Fields(tc.want[0])[0]) {
				t.Errorf("output has no FAIL line for %s:\n%s", tc.want[0], out.String())
			}
		})
	}
}

// TestCompareNamesMovedLayer: on traced runs the compare names the
// per-layer metric that moved most in its worse direction. A share that
// grew tenfold from near 0 moves by its difference and does not outrank a
// timing that tripled; metrics that read 0 (another workload's) and
// metrics that improved are not named.
func TestCompareNamesMovedLayer(t *testing.T) {
	var base, change []synthRun
	for _, d := range drifts {
		base = append(base, tracedRun(d))
		c := tracedRun(d)
		c.metrics["dsp.spectral_scan_us"] *= 3
		c.metrics["core.detect_ms"] *= 2.6
		c.metrics["dsp.upsample_us"] *= 0.5
		c.metrics["trace_overhead"] = 0.02
		change = append(change, c)
	}
	var out bytes.Buffer
	if err := compare(benchmarkPath, writeRuns(t, base), writeRuns(t, change), &out); err != nil {
		t.Fatalf("traced runs carry no end-to-end metric to fail on: %v", err)
	}
	want := "fullbank  per-layer metric that moved most in its worse direction: dsp.spectral_scan_us"
	if !strings.Contains(out.String(), want) {
		t.Fatalf("output does not name dsp.spectral_scan_us:\n%s", out.String())
	}

	// Unchanged traced runs name no metric.
	out.Reset()
	if err := compare(benchmarkPath, writeRuns(t, base), writeRuns(t, base), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "moved most") {
		t.Fatalf("identical runs name a moved metric:\n%s", out.String())
	}
}

func TestCompareRejectsBadInputs(t *testing.T) {
	good := writeRuns(t, pairedRuns(nil))
	var out bytes.Buffer
	if err := compare(filepath.Join(t.TempDir(), "missing.json"), good, good, &out); err == nil {
		t.Error("missing BENCHMARK.json accepted")
	}
	noMetrics := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(noMetrics, []byte(`{"per_layer": [{"name": "core.detect_ms", "better": "lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compare(noMetrics, good, good, &out); err == nil || !strings.Contains(err.Error(), "no end-to-end metrics") {
		t.Errorf("a declaration without end-to-end metrics accepted: %v", err)
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compare(benchmarkPath, empty, good, &out); err == nil {
		t.Error("empty base runs accepted")
	}
	garbage := filepath.Join(t.TempDir(), "garbage.jsonl")
	if err := os.WriteFile(garbage, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compare(benchmarkPath, good, garbage, &out); err == nil {
		t.Error("garbage change runs accepted")
	}
}

func TestRequireDeterministic(t *testing.T) {
	// Two reports from "runs" differing only in wall time, start time,
	// runtime stats, and *_seconds metrics: deterministic.
	a := liveReport()
	b := liveReport()
	b.WallSeconds = 9.9
	b.StartTime = "2001-01-01T00:00:00Z"
	b.Runtime.TotalAllocBytes += 1 << 20
	b.Experiments[0].WallSeconds = 7.7
	for i := range b.Metrics.Histograms {
		if strings.HasSuffix(b.Metrics.Histograms[i].Name, obs.WallTimeMetricSuffix) {
			b.Metrics.Histograms[i].Sum *= 3
		}
	}
	if err := requireDeterministic([]string{writeReport(t, a), writeReport(t, b)}); err != nil {
		t.Fatalf("wall-time-only differences flagged as nondeterminism: %v", err)
	}

	// A deterministic field differing between runs must fail.
	c := liveReport()
	c.Experiments[0].OutputBytes = 101
	err := requireDeterministic([]string{writeReport(t, a), writeReport(t, c)})
	if err == nil || !strings.Contains(err.Error(), "not deterministic") {
		t.Fatalf("output_bytes drift accepted: %v", err)
	}
	if !strings.Contains(err.Error(), "output_bytes") {
		t.Fatalf("diff does not name the offending field: %v", err)
	}

	// A metric value drift (the classic unseeded-randomness symptom) must
	// fail too.
	d := liveReport()
	d.Metrics.Counters[0].Value++
	if err := requireDeterministic([]string{writeReport(t, a), writeReport(t, d)}); err == nil {
		t.Fatal("counter drift accepted")
	}

	// Invalid reports are rejected before comparison.
	broken := liveReport()
	broken.Experiments = nil
	if err := requireDeterministic([]string{writeReport(t, a), writeReport(t, broken)}); err == nil {
		t.Fatal("invalid report accepted by -require-deterministic")
	}
}

func TestRequireFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Count("sim.frames_on_air", 42)
	reg.Count("experiments.trials", 15)
	reg.Observe("experiments.trial_seconds", 0.002)
	reg.Count("detector.detect_calls", 10)
	reg.CounterVec("trace.spans", "name").With("session.round").Add(5)
	r := obs.NewRunReport("crbench", 1, 3)
	r.Experiments = []obs.ExperimentReport{{Name: "sec5", WallSeconds: 0.1, OutputBytes: 100}}
	r.Finish(reg.Snapshot(), 120*time.Millisecond)
	path := writeReport(t, r)

	// Counter, labeled-counter, and histogram families all count,
	// by exact name or prefix; empty entries are ignored.
	if err := requireFamilies(path, "detector.,trace.,experiments.trial_seconds, ,sim."); err != nil {
		t.Fatalf("present families flagged missing: %v", err)
	}
	err := requireFamilies(path, "detector.,ranging.,dsp.")
	if err == nil {
		t.Fatal("absent families passed -require-metrics")
	}
	for _, want := range []string{"dsp.", "ranging."} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want mention of %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "detector.") {
		t.Fatalf("err names a present family: %v", err)
	}
	if err := requireFamilies(filepath.Join(t.TempDir(), "missing.json"), "detector."); err == nil {
		t.Fatal("missing report accepted")
	}
}

func TestRequireEngineProfile(t *testing.T) {
	profiled := func() *obs.RunReport {
		r := liveReport()
		r.Experiments[0].EngineParallelEfficiency = 0.42
		r.Experiments[0].EngineBarrierStallPct = 58
		r.Experiments[0].EngineDrainPct = 3.5
		r.Experiments[0].EngineCriticalShard = 7
		r.Experiments[0].EngineCriticalShardPct = 12
		return r
	}
	if err := requireEngineProfile(writeReport(t, profiled()), 0); err != nil {
		t.Fatalf("sane profile rejected: %v", err)
	}
	// The floor flag gates on top of the sanity envelope.
	if err := requireEngineProfile(writeReport(t, profiled()), 0.4); err != nil {
		t.Fatalf("profile above floor rejected: %v", err)
	}
	if err := requireEngineProfile(writeReport(t, profiled()), 0.5); err == nil ||
		!strings.Contains(err.Error(), "below floor") {
		t.Fatalf("err = %v, want efficiency-floor failure", err)
	}
	// An unprofiled report (all-zero engine fields) must fail the gate.
	if err := requireEngineProfile(writeReport(t, liveReport()), 0); err == nil ||
		!strings.Contains(err.Error(), "no experiment carries an engine profile") {
		t.Fatalf("err = %v, want missing-profile failure", err)
	}
	// Out-of-envelope diagnoses fail even when present.
	for name, mutate := range map[string]func(*obs.RunReport){
		"efficiency above envelope": func(r *obs.RunReport) { r.Experiments[0].EngineParallelEfficiency = 1.5 },
		"negative stall":            func(r *obs.RunReport) { r.Experiments[0].EngineBarrierStallPct = -1 },
		"drain above 100":           func(r *obs.RunReport) { r.Experiments[0].EngineDrainPct = 101 },
		"critical share above 100":  func(r *obs.RunReport) { r.Experiments[0].EngineCriticalShardPct = 120 },
	} {
		r := profiled()
		mutate(r)
		if err := requireEngineProfile(writeReport(t, r), 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := requireEngineProfile(filepath.Join(t.TempDir(), "missing.json"), 0); err == nil {
		t.Fatal("missing report accepted")
	}
}

func TestCheckRejectsGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := check(path); err == nil {
		t.Fatal("garbage file passed validation")
	}
	if err := check(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file passed validation")
	}
}
