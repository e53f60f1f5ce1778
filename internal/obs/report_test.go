package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleReport() *RunReport {
	reg := NewRegistry()
	reg.Count("sim.frames_on_air", 12)
	reg.Observe("detector.iterations", 3)
	reg.Observe("experiments.trial_seconds", 0.12) // wall-time metric
	r := NewRunReport("crbench", 1, 5)
	r.Experiments = append(r.Experiments, ExperimentReport{
		Name: "sec5", WallSeconds: 1.5, OutputBytes: 100,
		EngineParallelEfficiency: 0.8, EngineBarrierStallPct: 20,
		EngineDrainPct: 3, EngineCriticalShard: 7, EngineCriticalShardPct: 12.5,
	})
	r.Finish(reg.Snapshot(), 2*time.Second)
	return r
}

func TestReportValidateAndRoundTrip(t *testing.T) {
	r := sampleReport()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.Tool != "crbench" || back.Seed != 1 || back.Trials != 5 {
		t.Fatalf("round-tripped header = %+v", back)
	}
	if back.Metrics.CounterValue("sim.frames_on_air") != 12 {
		t.Fatalf("metrics lost: %+v", back.Metrics)
	}
}

func TestReportValidateRejectsBadReports(t *testing.T) {
	for name, mutate := range map[string]func(*RunReport){
		"schema":     func(r *RunReport) { r.Schema = 99 },
		"tool":       func(r *RunReport) { r.Tool = "" },
		"noexp":      func(r *RunReport) { r.Experiments = nil },
		"unnamed":    func(r *RunReport) { r.Experiments[0].Name = "" },
		"negwall":    func(r *RunReport) { r.Experiments[0].WallSeconds = -1 },
		"histcounts": func(r *RunReport) { r.Metrics.Histograms[0].Count += 3 },
	} {
		r := sampleReport()
		mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validation passed on a broken report", name)
		}
	}
}

func TestStripWallTime(t *testing.T) {
	r := sampleReport()
	s := r.StripWallTime()
	if s.StartTime != "" || s.WallSeconds != 0 || s.Runtime != (RuntimeStats{}) {
		t.Fatalf("wall fields survive: %+v", s)
	}
	if s.Experiments[0].WallSeconds != 0 {
		t.Fatalf("experiment wall-time fields survive: %+v", s.Experiments[0])
	}
	// The engine-profiler diagnosis is wall-clock-derived scheduling noise:
	// every field of it must be stripped.
	if e := s.Experiments[0]; e.EngineParallelEfficiency != 0 || e.EngineBarrierStallPct != 0 ||
		e.EngineDrainPct != 0 || e.EngineCriticalShard != 0 || e.EngineCriticalShardPct != 0 {
		t.Fatalf("engine profile fields survive: %+v", e)
	}
	if _, ok := s.Metrics.HistogramByName("experiments.trial_seconds"); ok {
		t.Fatal("wall-time metric survives the strip")
	}
	if _, ok := s.Metrics.HistogramByName("detector.iterations"); !ok {
		t.Fatal("deterministic metric stripped")
	}
	// The original must be untouched.
	if r.WallSeconds == 0 || r.Experiments[0].WallSeconds == 0 {
		t.Fatal("StripWallTime mutated the original report")
	}
	// Stripped reports of identical runs must encode identically.
	var a, b bytes.Buffer
	if err := s.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.StripWallTime().Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("stripping the same report twice differs")
	}
}

// TestReadReportFileIgnoresDroppedWindows reads a report in the layout
// older runs wrote (the retired BENCH_*.json points among them), whose
// metrics still carry
// the removed "windows" key: the key is ignored and the rest survives.
func TestReadReportFileIgnoresDroppedWindows(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	const windows = `"metrics": {
    "windows": [{"name": "experiments.trials", "width_seconds": 1,
      "points": [{"age_seconds": 0.5, "count": 3, "sum": 3}],
      "count_rate_per_second": 3, "sum_rate_per_second": 3}],`
	old := strings.Replace(buf.String(), `"metrics": {`, windows, 1)
	if old == buf.String() {
		t.Fatal("encoded report has no metrics object to extend")
	}
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReportFile(path)
	if err != nil {
		t.Fatalf("report with a windows key rejected: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.Metrics.CounterValue("sim.frames_on_air") != 12 {
		t.Fatalf("metrics lost next to the windows key: %+v", back.Metrics)
	}
}
