// Command reportcheck validates a crbench -json run report: the file must
// parse, satisfy the schema's structural invariants, and carry non-zero
// values for the key fields a real run always produces. CI runs it against
// a smoke-test report so a silently broken instrumentation path fails the
// build instead of shipping empty reports.
//
// Usage:
//
//	reportcheck [-require-metrics prefixes] report.json [report2.json ...]
//	reportcheck -require-deterministic a.json b.json [more.json ...]
//	reportcheck -compare BENCHMARK.json base.jsonl change.jsonl
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
// In -require-deterministic mode every report is validated, stripped of
// its wall-time fields (obs.RunReport.StripWallTime), and re-encoded; the
// run fails unless all encodings are byte-identical to the first. Two
// crbench runs with the same seed, trials, and experiment list must agree
// on everything but wall time — CI runs the smoke experiment twice and
// feeds both reports through this gate, so a nondeterminism regression
// (an unseeded random source, map-ordered output, a wall-clock leak into
// a report field) fails the build.
//
// In -compare mode the inputs are the perfbench result lines that
// scripts/perfgate.sh records at a base commit and at a change, and the
// run fails when the change is worse than BENCHMARK.json allows (see
// compare): the repository's performance gate.
//
// Exit status 0 means every report is well-formed (and, with -compare, no
// regression was found); any defect prints a diagnostic and exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"github.com/uwb-sim/concurrent-ranging/internal/obs"
)

func main() {
	benchPath := flag.String("compare", "", "compare paired perfbench runs against the bounds of this `BENCHMARK.json`")
	requireDet := flag.Bool("require-deterministic", false, "fail unless all reports are byte-identical after StripWallTime")
	requireMetrics := flag.String("require-metrics", "", "comma-separated metric-family name `prefixes` each report must carry")
	requireEngine := flag.Bool("require-engine-profile", false, "fail unless each report carries an in-range sharded-engine scaling diagnosis")
	minEfficiency := flag.Float64("min-engine-efficiency", 0, "with -require-engine-profile, fail when parallel efficiency is below this floor (0 = no floor)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: reportcheck [-require-metrics prefixes] [-require-engine-profile] report.json [report2.json ...]")
		fmt.Fprintln(os.Stderr, "       reportcheck -require-deterministic a.json b.json [more.json ...]")
		fmt.Fprintln(os.Stderr, "       reportcheck -compare BENCHMARK.json base.jsonl change.jsonl")
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
	if *benchPath != "" {
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "reportcheck: -compare takes the base runs and the change runs")
			os.Exit(2)
		}
		if err := compare(*benchPath, args[0], args[1], os.Stdout); err != nil {
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

// metricDecl is one metric of BENCHMARK.json: its better direction and,
// for an end-to-end metric, the largest relative change in the worse
// direction the gate accepts.
type metricDecl struct {
	Name, Unit, Better string
	Bound              float64
}

// perfRun is one result line as scripts/perfgate.sh records it: the
// workload and the JSON line perfbench printed.
type perfRun struct {
	Workload string
	Run      struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]struct{ Value float64 }
	}
}

// compare is the performance gate's verdict on paired perfbench runs: the
// i-th run of a workload in changePath pairs with the i-th run of it in
// basePath. It prints each end-to-end metric's median paired change in
// its worse direction and, for -trace 1 runs, the per-layer metric that
// moved most that way. Each failure prints a line "FAIL <workload> ...":
// unpaired runs, a run with correct: false, a failed/attempted share above
// the base's, or an end-to-end metric worse than its bound.
func compare(benchPath, basePath, changePath string, w io.Writer) error {
	var decl struct {
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	if len(decl.EndToEnd) == 0 {
		return fmt.Errorf("%s declares no end-to-end metrics", benchPath)
	}
	base, order, err := readRuns(basePath)
	if err != nil {
		return err
	}
	change, changeOrder, err := readRuns(changePath)
	if err != nil {
		return err
	}
	for _, name := range changeOrder {
		if base[name] == nil {
			order = append(order, name)
		}
	}
	var failures []string
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		fmt.Fprintln(w, "FAIL", msg)
		failures = append(failures, msg)
	}
	for _, name := range order {
		b, c := base[name], change[name]
		if len(b) != len(c) {
			fail("%s has %d base runs and %d change runs", name, len(b), len(c))
			continue
		}
		var bFailed, bAttempted, cFailed, cAttempted int64
		for i := range b {
			if !b[i].Run.Correct || !c[i].Run.Correct {
				fail("%s pair %d reported correct: false (base %v, change %v)", name, i+1, b[i].Run.Correct, c[i].Run.Correct)
			}
			bFailed, bAttempted = bFailed+b[i].Run.Failed, bAttempted+b[i].Run.Attempted
			cFailed, cAttempted = cFailed+c[i].Run.Failed, cAttempted+c[i].Run.Attempted
		}
		// cFailed/cAttempted > bFailed/bAttempted, with no division by 0.
		if float64(cFailed)*float64(bAttempted) > float64(bFailed)*float64(cAttempted) {
			fail("%s failed share %d/%d exceeds the base's %d/%d", name, cFailed, cAttempted, bFailed, bAttempted)
		}
		for _, m := range decl.EndToEnd {
			if worse, ok := medianWorse(m, b, c, false); ok {
				fmt.Fprintf(w, "%-9s %-15s worse by %+6.1f%%, bound %.0f%%\n", name, m.Name, 100*worse, 100*m.Bound)
				if worse > m.Bound {
					fail("%s %s: median paired change %.1f%% worse than the base, bound %.0f%%", name, m.Name, 100*worse, 100*m.Bound)
				}
			}
		}
		// A share (unit "ratio") moves by its difference, in points: a
		// share near 0 changes by large factors on noise alone.
		top, topWorse := "", 0.0
		for _, m := range decl.PerLayer {
			if worse, ok := medianWorse(m, b, c, m.Unit == "ratio"); ok && worse > topWorse {
				top, topWorse = m.Name, worse
			}
		}
		if top != "" {
			fmt.Fprintf(w, "%-9s per-layer metric that moved most in its worse direction: %s (worse by %.0f%%)\n", name, top, 100*topWorse)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d failures: %s", len(failures), strings.Join(failures, "; "))
	}
	return nil
}

// readRuns reads perfgate.sh's result lines and groups them by workload;
// order lists the workloads as they first appear.
func readRuns(path string) (runs map[string][]perfRun, order []string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	runs = make(map[string][]perfRun)
	for dec := json.NewDecoder(f); dec.More(); {
		var r perfRun
		if err := dec.Decode(&r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if runs[r.Workload] == nil {
			order = append(order, r.Workload)
		}
		runs[r.Workload] = append(runs[r.Workload], r)
	}
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("%s holds no perfbench runs", path)
	}
	return runs, order, nil
}

// medianWorse returns the median over the pairs of m's change from the
// base run to the change run in m's worse direction (positive = worse),
// relative to the base value or, with diff, as the plain difference; ok is
// false when the base runs do not report m.
func medianWorse(m metricDecl, base, change []perfRun, diff bool) (worse float64, ok bool) {
	if _, ok := base[0].Run.Metrics[m.Name]; !ok {
		return 0, false
	}
	ws := make([]float64, len(base))
	for i := range base {
		bv, cv := base[i].Run.Metrics[m.Name].Value, change[i].Run.Metrics[m.Name].Value
		if ws[i] = cv - bv; !diff && ws[i] != 0 {
			ws[i] /= bv // ±Inf when the base reads 0
		}
		if m.Better == "higher" {
			ws[i] = -ws[i]
		}
	}
	slices.Sort(ws)
	return (ws[(len(ws)-1)/2] + ws[len(ws)/2]) / 2, true
}
