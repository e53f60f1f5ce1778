package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/ranging"
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

func TestCompareWallTimes(t *testing.T) {
	base := liveReport()
	base.Experiments = []obs.ExperimentReport{
		{Name: "sec5", WallSeconds: 0.1, OutputBytes: 100},
		{Name: "sec6", WallSeconds: 0.2, OutputBytes: 100},
	}
	oldPath := writeReport(t, base)

	within := liveReport()
	within.Experiments = []obs.ExperimentReport{
		{Name: "sec5", WallSeconds: 0.3, OutputBytes: 100},  // 3x < 4x
		{Name: "fig4", WallSeconds: 99.0, OutputBytes: 100}, // not in baseline: ignored
	}
	if err := compare(oldPath, writeReport(t, within), 4, 1); err != nil {
		t.Fatalf("3x slowdown within 4x limit rejected: %v", err)
	}

	regressed := liveReport()
	regressed.Experiments = []obs.ExperimentReport{
		{Name: "sec6", WallSeconds: 1.5, OutputBytes: 100}, // 7.5x > 4x (plus grace)
	}
	err := compare(oldPath, writeReport(t, regressed), 4, 1)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("7.5x regression accepted: %v", err)
	}

	disjoint := liveReport()
	disjoint.Experiments = []obs.ExperimentReport{{Name: "fig8", WallSeconds: 0.1, OutputBytes: 1}}
	if err := compare(oldPath, writeReport(t, disjoint), 4, 1); err == nil {
		t.Fatal("reports with no common experiments accepted")
	}

	if err := compare(oldPath, oldPath, 0, 1); err == nil {
		t.Fatal("non-positive -max-regress accepted")
	}
	// A structurally broken report must fail compare too.
	broken := liveReport()
	broken.Experiments = nil
	if err := compare(oldPath, writeReport(t, broken), 4, 1); err == nil {
		t.Fatal("invalid new report accepted by compare")
	}
}

func TestCompareSkipsZeroWallBaseline(t *testing.T) {
	// A baseline experiment whose wall time never got recorded (0) cannot
	// scale into a limit; the wall gate must skip it with a notice instead
	// of gating the new run against bare grace (the old division-by-zero
	// shaped failure).
	base := liveReport()
	base.Experiments = []obs.ExperimentReport{
		{Name: "sec5", WallSeconds: 0, OutputBytes: 100},
		{Name: "sec6", WallSeconds: 0.1, OutputBytes: 100},
	}
	next := liveReport()
	next.Experiments = []obs.ExperimentReport{
		{Name: "sec5", WallSeconds: 30, OutputBytes: 100}, // would trip any scaled limit
		{Name: "sec6", WallSeconds: 0.2, OutputBytes: 100},
	}
	if err := compare(writeReport(t, base), writeReport(t, next), 4, 1); err != nil {
		t.Fatalf("zero-wall baseline not skipped: %v", err)
	}
}

func TestCompareThroughputGate(t *testing.T) {
	withRate := func(rate float64) *obs.RunReport {
		r := liveReport()
		r.Experiments = []obs.ExperimentReport{
			{Name: "fullbank", WallSeconds: 0.1, OutputBytes: 100, CIRsPerSecond: rate},
		}
		return r
	}
	cases := []struct {
		name     string
		old, new *obs.RunReport
		wantErr  string // "" = pass
	}{
		{"within limit", withRate(100), withRate(30), ""}, // 100/4 = 25 floor
		{"regression fails", withRate(100), withRate(20), "batch throughput"},
		{"improvement passes", withRate(100), withRate(500), ""},
		{"skipped without baseline measurement", withRate(0), withRate(100), ""},
		{"skipped without new measurement", withRate(100), withRate(0), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compare(writeReport(t, tc.old), writeReport(t, tc.new), 4, 1)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("compare failed: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

func TestCompareGraceAbsorbsTinyBaselines(t *testing.T) {
	base := liveReport()
	base.Experiments = []obs.ExperimentReport{{Name: "sec5", WallSeconds: 0.001, OutputBytes: 100}}
	fast := liveReport()
	fast.Experiments = []obs.ExperimentReport{{Name: "sec5", WallSeconds: 0.03, OutputBytes: 100}}
	// 30x on a 1 ms baseline is scheduler noise, absorbed by the grace.
	if err := compare(writeReport(t, base), writeReport(t, fast), 4, 1); err != nil {
		t.Fatalf("noise-scale wobble rejected: %v", err)
	}
}

// qualityReport is a liveReport carrying the ranging session counters the
// quality gate reads.
func qualityReport(found, expected int64) *obs.RunReport {
	reg := obs.NewRegistry()
	reg.Count("sim.frames_on_air", 42)
	reg.Count("experiments.trials", 15)
	reg.Observe("experiments.trial_seconds", 0.002)
	if expected > 0 {
		reg.Count(ranging.MetricRespondersExpected, expected)
	}
	if found > 0 {
		reg.Count(ranging.MetricRespondersFound, found)
	}
	r := obs.NewRunReport("crbench", 1, 3)
	r.Experiments = []obs.ExperimentReport{{Name: "sec5", WallSeconds: 0.1, OutputBytes: 100}}
	r.Finish(reg.Snapshot(), 120*time.Millisecond)
	return r
}

func TestCompareQualityGate(t *testing.T) {
	cases := []struct {
		name     string
		old, new *obs.RunReport
		maxDrop  float64
		wantErr  string // "" = pass
	}{
		{
			name: "within limit",
			old:  qualityReport(99, 100), new: qualityReport(985, 1000),
			maxDrop: 1,
		},
		{
			name: "drop beyond limit fails",
			old:  qualityReport(99, 100), new: qualityReport(95, 100),
			maxDrop: 1, wantErr: "success rate dropped",
		},
		{
			name: "improvement passes",
			old:  qualityReport(90, 100), new: qualityReport(99, 100),
			maxDrop: 1,
		},
		{
			name: "gate skipped when baseline lacks counters",
			old:  qualityReport(0, 0), new: qualityReport(50, 100),
			maxDrop: 1,
		},
		{
			name: "gate skipped when new report lacks counters",
			old:  qualityReport(99, 100), new: qualityReport(0, 0),
			maxDrop: 1,
		},
		{
			name: "zero tolerance flags any drop",
			old:  qualityReport(1000, 1000), new: qualityReport(999, 1000),
			maxDrop: 0, wantErr: "success rate dropped",
		},
		{
			name: "negative tolerance rejected",
			old:  qualityReport(99, 100), new: qualityReport(99, 100),
			maxDrop: -1, wantErr: "max-quality-drop",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compare(writeReport(t, tc.old), writeReport(t, tc.new), 4, tc.maxDrop)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("compare failed: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, tc.wantErr)
			}
		})
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
