// Command reportcheck validates a crbench -json run report: the file must
// parse, satisfy the schema's structural invariants, and carry non-zero
// values for the key fields a real run always produces. CI runs it against
// a smoke-test report so a silently broken instrumentation path fails the
// build instead of shipping empty reports.
//
// Usage:
//
//	reportcheck [-require-metrics prefixes] report.json [report2.json ...]
//	reportcheck -compare old.json new.json [-max-regress factor] [-max-quality-drop pp]
//	reportcheck -require-deterministic a.json b.json [more.json ...]
//
// -require-metrics takes comma-separated metric-family name prefixes
// (e.g. "detector.,trace.") and fails any report that carries no family
// matching each prefix — the gate that catches an instrumentation path
// going silently unwired.
//
// -require-engine-profile fails any report in which no experiment carries
// the sharded-engine scaling diagnosis (engine_parallel_efficiency and
// friends, produced by the sim.EngineProfiler), or in which a diagnosis
// is out of range: efficiency must be in (0, 1.2] (a hair above 1 absorbs
// clock granularity on very short windows) and the stall/drain/critical-
// shard percentages in [0, 100]. -min-engine-efficiency adds an optional
// hard floor on parallel efficiency; it defaults to 0 (off) because
// absolute efficiency depends on the host's core count — CI containers
// are often single-CPU, where barrier stall is expected, not a defect.
//
// In -compare mode both reports are validated and the per-experiment wall
// times of the experiments common to both are compared: the run fails if
// any experiment in new.json took more than factor times (default 4) its
// old.json wall time, plus a small absolute grace so microsecond-scale
// experiments don't trip on scheduler noise. CI compares the smoke run
// against the committed BENCH_* baseline, so a detector-path performance
// regression fails the build rather than landing silently.
//
// -compare also gates detection quality: when both reports carry the
// ranging session counters (responders found vs expected), the run fails
// if the detection success rate dropped by more than -max-quality-drop
// percentage points (default 1). Reports without those counters (runs
// that never built a ranging session) skip the gate with a notice.
//
// In -require-deterministic mode every report is validated, stripped of
// its wall-time fields (obs.RunReport.StripWallTime), and re-encoded; the
// run fails unless all encodings are byte-identical to the first. Two
// crbench runs with the same seed, trials, and experiment list must agree
// on everything but wall time — CI runs the smoke experiment twice and
// feeds both reports through this gate, so a nondeterminism regression
// (an unseeded random source, map-ordered output, a wall-clock leak into
// a report field) fails the build.
//
// Exit status 0 means every report is well-formed (and, with -compare, no
// regression was found); any defect prints a diagnostic and exits 1.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/ranging"
)

func main() {
	comparePath := flag.String("compare", "", "baseline report to compare wall times against")
	maxRegress := flag.Float64("max-regress", 4, "fail when an experiment exceeds this factor of its baseline wall time")
	maxQualityDrop := flag.Float64("max-quality-drop", 1, "fail when the detection success rate drops by more than this many percentage points")
	requireDet := flag.Bool("require-deterministic", false, "fail unless all reports are byte-identical after StripWallTime")
	requireMetrics := flag.String("require-metrics", "", "comma-separated metric-family name `prefixes` each report must carry")
	requireEngine := flag.Bool("require-engine-profile", false, "fail unless each report carries an in-range sharded-engine scaling diagnosis")
	minEfficiency := flag.Float64("min-engine-efficiency", 0, "with -require-engine-profile, fail when parallel efficiency is below this floor (0 = no floor)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: reportcheck [-require-metrics prefixes] [-require-engine-profile] report.json [report2.json ...]")
		fmt.Fprintln(os.Stderr, "       reportcheck -compare old.json new.json [-max-regress factor] [-max-quality-drop pp]")
		fmt.Fprintln(os.Stderr, "       reportcheck -require-deterministic a.json b.json [more.json ...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *requireDet {
		if len(args) < 2 {
			fmt.Fprintln(os.Stderr, "reportcheck: -require-deterministic takes at least two reports")
			os.Exit(2)
		}
		if err := requireDeterministic(args); err != nil {
			fmt.Fprintf(os.Stderr, "reportcheck: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *comparePath != "" {
		if len(args) != 1 {
			fmt.Fprintln(os.Stderr, "reportcheck: -compare takes exactly one new report")
			os.Exit(2)
		}
		if err := compare(*comparePath, args[0], *maxRegress, *maxQualityDrop); err != nil {
			fmt.Fprintf(os.Stderr, "reportcheck: %v\n", err)
			os.Exit(1)
		}
		return
	}
	failed := false
	for _, path := range args {
		if err := check(path); err != nil {
			fmt.Fprintf(os.Stderr, "reportcheck: %s: %v\n", path, err)
			failed = true
			continue
		}
		if *requireMetrics != "" {
			if err := requireFamilies(path, *requireMetrics); err != nil {
				fmt.Fprintf(os.Stderr, "reportcheck: %s: %v\n", path, err)
				failed = true
				continue
			}
		}
		if *requireEngine {
			if err := requireEngineProfile(path, *minEfficiency); err != nil {
				fmt.Fprintf(os.Stderr, "reportcheck: %s: %v\n", path, err)
				failed = true
				continue
			}
		}
		fmt.Printf("%s: ok\n", path)
	}
	if failed {
		os.Exit(1)
	}
}

// check applies the structural Validate pass plus liveness checks: a run
// that executed any simulation must have put frames on the air, timed its
// trials, and taken non-zero wall time.
func check(path string) error {
	r, err := obs.ReadReportFile(path)
	if err != nil {
		return err
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if r.WallSeconds <= 0 {
		return fmt.Errorf("wall_seconds is %g, want > 0", r.WallSeconds)
	}
	if r.GoVersion == "" || r.NumCPU <= 0 {
		return fmt.Errorf("host fields missing (go_version %q, num_cpu %d)", r.GoVersion, r.NumCPU)
	}
	// Liveness: every simulation-backed experiment transmits frames and
	// times trials; a report with neither means the instrumentation was
	// never wired through.
	if frames := r.Metrics.CounterValue("sim.frames_on_air"); frames <= 0 {
		return fmt.Errorf("sim.frames_on_air is %d, want > 0", frames)
	}
	if trials := r.Metrics.CounterValue("experiments.trials"); trials <= 0 {
		return fmt.Errorf("experiments.trials is %d, want > 0", trials)
	}
	h, ok := r.Metrics.HistogramByName("experiments.trial_seconds")
	if !ok || h.Count == 0 {
		return fmt.Errorf("experiments.trial_seconds histogram missing or empty")
	}
	if h.Sum <= 0 {
		return fmt.Errorf("experiments.trial_seconds sum is %g, want > 0", h.Sum)
	}
	return nil
}

// requireFamilies fails unless the report's metrics snapshot carries, for
// every comma-separated entry in spec, at least one metric family
// (counter, gauge, or histogram) whose name starts with that
// entry. CI passes the instrumentation families a campaign smoke run must
// produce (detector., trace., ...) so a silently unwired recording path —
// the metric constants exist but nothing ever records them — fails the
// build instead of shipping hollow reports.
func requireFamilies(path, spec string) error {
	r, err := obs.ReadReportFile(path)
	if err != nil {
		return err
	}
	names := make(map[string]bool)
	for _, c := range r.Metrics.Counters {
		names[c.Name] = true
	}
	for _, g := range r.Metrics.Gauges {
		names[g.Name] = true
	}
	for _, h := range r.Metrics.Histograms {
		names[h.Name] = true
	}
	var missing []string
	for _, want := range strings.Split(spec, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		found := false
		for name := range names {
			if strings.HasPrefix(name, want) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("report has no metric families matching: %s", strings.Join(missing, ", "))
	}
	return nil
}

// requireEngineProfile fails unless at least one experiment carries the
// sharded-engine scaling diagnosis and every diagnosis present is
// internally sane: parallel efficiency in (0, 1.2] (the small overshoot
// absorbs clock granularity on very short windows), barrier-stall and
// bus-drain shares in [0, 100] %, and — when a critical shard is named —
// its busy-time share in (0, 100] %. minEfficiency > 0 adds a hard
// efficiency floor on top; absolute floors are host-dependent (a
// single-CPU container stalls at barriers by construction), so the
// default gate is the sanity envelope only.
func requireEngineProfile(path string, minEfficiency float64) error {
	r, err := obs.ReadReportFile(path)
	if err != nil {
		return err
	}
	profiled := 0
	for _, e := range r.Experiments {
		if e.EngineParallelEfficiency == 0 {
			continue
		}
		profiled++
		if e.EngineParallelEfficiency < 0 || e.EngineParallelEfficiency > 1.2 {
			return fmt.Errorf("experiment %q engine_parallel_efficiency %g outside (0, 1.2]",
				e.Name, e.EngineParallelEfficiency)
		}
		if e.EngineBarrierStallPct < 0 || e.EngineBarrierStallPct > 100 {
			return fmt.Errorf("experiment %q engine_barrier_stall_pct %g outside [0, 100]",
				e.Name, e.EngineBarrierStallPct)
		}
		if e.EngineDrainPct < 0 || e.EngineDrainPct > 100 {
			return fmt.Errorf("experiment %q engine_drain_pct %g outside [0, 100]",
				e.Name, e.EngineDrainPct)
		}
		if e.EngineCriticalShardPct < 0 || e.EngineCriticalShardPct > 100 {
			return fmt.Errorf("experiment %q engine_critical_shard_pct %g outside [0, 100]",
				e.Name, e.EngineCriticalShardPct)
		}
		if e.EngineParallelEfficiency < minEfficiency {
			return fmt.Errorf("experiment %q engine_parallel_efficiency %g below floor %g",
				e.Name, e.EngineParallelEfficiency, minEfficiency)
		}
		fmt.Printf("%s: engine profile %s: efficiency %.1f%%, stall %.1f%%, drain %.1f%%, critical shard %d (%.1f%%)\n",
			path, e.Name, 100*e.EngineParallelEfficiency, e.EngineBarrierStallPct,
			e.EngineDrainPct, e.EngineCriticalShard, e.EngineCriticalShardPct)
	}
	if profiled == 0 {
		return fmt.Errorf("no experiment carries an engine profile (engine_parallel_efficiency is zero everywhere)")
	}
	return nil
}

// requireDeterministic validates every report and fails unless all of
// them are byte-identical after StripWallTime: same seed, same trials,
// same experiments ⇒ same everything-but-wall-time, the repository's
// determinism contract.
func requireDeterministic(paths []string) error {
	var ref []byte
	for i, path := range paths {
		if err := check(path); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		r, err := obs.ReadReportFile(path)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := r.StripWallTime().Encode(&buf); err != nil {
			return fmt.Errorf("%s: re-encoding stripped report: %w", path, err)
		}
		if i == 0 {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(ref, buf.Bytes()) {
			return fmt.Errorf("%s is not deterministic against %s: stripped reports differ at %s",
				path, paths[0], firstDiff(ref, buf.Bytes()))
		}
	}
	fmt.Printf("%d reports byte-identical after StripWallTime\n", len(paths))
	return nil
}

// firstDiff locates the first differing line of two indented JSON
// encodings, so a determinism failure names the offending field instead
// of dumping both reports.
func firstDiff(a, b []byte) string {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, strings.TrimSpace(al[i]), strings.TrimSpace(bl[i]))
		}
	}
	return fmt.Sprintf("line %d: encodings are prefixes of each other (%d vs %d lines)",
		min(len(al), len(bl))+1, len(al), len(bl))
}

// regressGraceSeconds is added to the scaled baseline before comparing, so
// experiments whose baseline wall time is within scheduler-noise scale
// cannot fail on jitter alone.
const regressGraceSeconds = 0.05

// compare validates both reports and fails if any experiment present in
// both regressed beyond maxRegress times its baseline wall time, or if
// the detection success rate dropped beyond maxQualityDrop percentage
// points.
func compare(oldPath, newPath string, maxRegress, maxQualityDrop float64) error {
	if maxRegress <= 0 {
		return fmt.Errorf("-max-regress must be positive, got %g", maxRegress)
	}
	if maxQualityDrop < 0 {
		return fmt.Errorf("-max-quality-drop must be non-negative, got %g", maxQualityDrop)
	}
	for _, path := range []string{oldPath, newPath} {
		if err := check(path); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	oldR, err := obs.ReadReportFile(oldPath)
	if err != nil {
		return err
	}
	newR, err := obs.ReadReportFile(newPath)
	if err != nil {
		return err
	}
	baseline := make(map[string]float64, len(oldR.Experiments))
	for _, e := range oldR.Experiments {
		baseline[e.Name] = e.WallSeconds
	}
	compared, failed := 0, 0
	for _, e := range newR.Experiments {
		old, ok := baseline[e.Name]
		if !ok {
			continue
		}
		compared++
		// A zero (or garbage-negative) baseline cannot scale into a
		// meaningful limit — the old factor-of-baseline math degenerated
		// to gating everything against the bare grace term. Skip with a
		// notice instead of failing on an undefined ratio.
		if old <= 0 {
			fmt.Printf("%-10s baseline wall time %gs; wall gate skipped\n", e.Name, old)
			continue
		}
		limit := old*maxRegress + regressGraceSeconds
		status := "ok"
		if e.WallSeconds > limit {
			status = fmt.Sprintf("REGRESSION (limit %.3fs)", limit)
			failed++
		}
		fmt.Printf("%-10s %8.3fs -> %8.3fs (%.2fx) %s\n",
			e.Name, old, e.WallSeconds, ratio(e.WallSeconds, old), status)
	}
	if compared == 0 {
		return fmt.Errorf("no common experiments between %s and %s", oldPath, newPath)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d experiments regressed beyond %gx", failed, compared, maxRegress)
	}
	if err := compareQuality(oldR, newR, maxQualityDrop); err != nil {
		return err
	}
	if err := compareThroughput(oldR, newR, maxRegress); err != nil {
		return err
	}
	fmt.Printf("%s vs %s: %d experiments within %gx\n", newPath, oldPath, compared, maxRegress)
	return nil
}

// compareThroughput gates measured throughputs per experiment — the
// batch-detection CIR rate and the sharded-engine event rate: when both
// reports carry a measurement for an experiment, the comparison fails if
// the new rate fell below baseline/maxRegress. An experiment where only
// one side measured throughput prints a notice and skips the gate — that
// is a changed experiment list or a newly added measurement, not a
// regression signal.
func compareThroughput(oldR, newR *obs.RunReport, maxRegress float64) error {
	rates := []struct {
		unit  string
		label string
		get   func(obs.ExperimentReport) float64
	}{
		{"CIRs/s", "batch", func(e obs.ExperimentReport) float64 { return e.CIRsPerSecond }},
		{"events/s", "swarm", func(e obs.ExperimentReport) float64 { return e.EventsPerSecond }},
	}
	var firstErr error
	for _, r := range rates {
		baseline := make(map[string]float64, len(oldR.Experiments))
		for _, e := range oldR.Experiments {
			baseline[e.Name] = r.get(e)
		}
		failed := 0
		for _, e := range newR.Experiments {
			old, ok := baseline[e.Name]
			if !ok {
				continue
			}
			rate := r.get(e)
			switch {
			case old > 0 && rate > 0:
				floor := old / maxRegress
				status := "ok"
				if rate < floor {
					status = fmt.Sprintf("REGRESSION (floor %.1f %s)", floor, r.unit)
					failed++
				}
				fmt.Printf("throughput %-10s %8.1f -> %8.1f %s (%.2fx) %s\n",
					e.Name, old, rate, r.unit, ratio(rate, old), status)
			case old > 0:
				fmt.Printf("throughput %-10s baseline %.1f %s but new report has no measurement; gate skipped\n",
					e.Name, old, r.unit)
			case rate > 0:
				fmt.Printf("throughput %-10s %.1f %s with no baseline measurement; gate skipped\n",
					e.Name, rate, r.unit)
			}
		}
		if failed > 0 && firstErr == nil {
			firstErr = fmt.Errorf("%d experiments regressed %s throughput beyond %gx", failed, r.label, maxRegress)
		}
	}
	return firstErr
}

// successRate returns the detection success rate in percent (responders
// found / responders expected) carried by a report's ranging session
// counters, or false when the run never recorded them.
func successRate(r *obs.RunReport) (float64, bool) {
	expected := r.Metrics.CounterValue(ranging.MetricRespondersExpected)
	if expected <= 0 {
		return 0, false
	}
	found := r.Metrics.CounterValue(ranging.MetricRespondersFound)
	return 100 * float64(found) / float64(expected), true
}

// compareQuality gates the detection success rate: a drop beyond
// maxQualityDrop percentage points fails the comparison. Reports without
// the ranging counters skip the gate (sec5/campaign-style runs never
// build a ranging session), as does a disagreement where only one side
// has them — a changed experiment list, not a quality signal.
func compareQuality(oldR, newR *obs.RunReport, maxQualityDrop float64) error {
	oldRate, oldOK := successRate(oldR)
	newRate, newOK := successRate(newR)
	if !oldOK || !newOK {
		fmt.Printf("quality: ranging counters absent (baseline %v, new %v); gate skipped\n", oldOK, newOK)
		return nil
	}
	drop := oldRate - newRate
	if drop > maxQualityDrop {
		return fmt.Errorf("detection success rate dropped %.2f pp (%.2f%% -> %.2f%%), limit %g pp",
			drop, oldRate, newRate, maxQualityDrop)
	}
	fmt.Printf("quality: detection success rate %.2f%% -> %.2f%% (limit -%g pp)\n",
		oldRate, newRate, maxQualityDrop)
	return nil
}

// ratio guards the displayed new/old quotient against a zero baseline.
func ratio(new, old float64) float64 {
	if old <= 0 {
		return 0
	}
	return new / old
}
