// Command perfbench is the repository's benchmark. It runs one of three
// closed-loop workloads — session, fullbank or swarm — for a fixed time on
// inputs generated from a seed, checks the outputs, and prints one JSON
// line: the end-to-end metrics of an uninstrumented run with -trace 0, or
// the per-layer metrics of a separately traced run with -trace 1.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh -workload session -seed 1 -seconds 25 -trace 0
//
// -workload all runs the three workloads in turn and prints each one's
// table and JSON line.
//
// README.md beside this file lists every metric, its unit, the layer it
// measures and the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of the bare run, reported for every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p99", "ms"},
	{"found_ratio", "ratio"},
	{"err_m", "m"},
	{"alloc_b_per_op", "B"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of the traced run. Every traced run reports
// all of them; a metric that belongs to another workload reads 0.
var perLayer = []metricDef{
	// session: Session.Run composed from the layer calls, per round.
	{"ranging.round_us", "us"},
	{"sim.round_us", "us"},
	{"core.detect_us", "us"},
	{"core.resolve_us", "us"},
	{"locate.solve_us", "us"},
	{"ranging.self_us", "us"},
	{"channel.realize_us", "us"},
	{"dw1000.receive_us", "us"},
	{"dw1000.receive_init_us", "us"},
	{"sim.replay_coverage", "ratio"},
	{"dsp.bank_transform_us", "us"},
	{"dsp.filter_peak_us", "us"},
	{"sim.frames_on_air", "count"},
	{"sim.receptions", "count"},
	{"locate.iterations", "count"},
	// session and fullbank: detector work per op and per call.
	{"dsp.upsample_us", "us"},
	{"detector.iterations", "count"},
	{"detector.template_evals", "count"},
	{"detector.refine_steps", "count"},
	{"detector.useful_ratio", "ratio"},
	{"dsp.upsample_execs", "count"},
	{"dsp.bank_transforms", "count"},
	// fullbank: warm single-goroutine detection and its dsp calls.
	{"core.detect_ms", "ms"},
	{"dsp.spectral_ingest_us", "us"},
	{"dsp.spectral_scan_us", "us"},
	{"dsp.shift_subtract_us", "us"},
	{"pulse.render_us", "us"},
	{"dsp.bank_shift_subtracts", "count"},
	{"dsp.upsample_share", "ratio"},
	{"dsp.spectral_ingest_share", "ratio"},
	{"dsp.spectral_scan_share", "ratio"},
	{"dsp.shift_subtract_share", "ratio"},
	{"pulse.render_share", "ratio"},
	{"detector.batch_balance", "ratio"},
	// swarm: the sharded engine's profile, per run.
	{"sim.engine_exec_s", "s"},
	{"sim.engine_drain_s", "s"},
	{"sim.engine_barrier_wait_s", "s"},
	{"sim.engine_parallel_efficiency", "ratio"},
	{"sim.engine_windows", "count"},
	{"sim.engine_bus_messages", "count"},
	{"sim.engine_events_per_window", "count"},
	{"sim.engine_critical_shard_share", "ratio"},
	{"sim.engine_heap_high_water", "count"},
	{"sim.cross_shard_share", "ratio"},
	// every workload.
	{"trace_overhead", "ratio"},
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	workers int
	sizes   sizes
}

// sizes scales the workloads; the benchmark runs defaultSizes and the
// tests run smaller ones.
type sizes struct {
	// setups is how often each workload's set-up is repeated; setup_s is
	// the median.
	setups int
	// sessionRounds is the minimum number of bare session rounds: the
	// latency sample count and the prefix found_ratio and err_m cover.
	sessionRounds int
	// sessionCheckRounds is how many rounds the composed path must
	// reproduce bit for bit.
	sessionCheckRounds int
	// sessionCountRounds is the traced-round prefix the per-op counts
	// cover.
	sessionCountRounds int
	// fullbankPool is the number of CIRs the fullbank loop cycles through.
	fullbankPool int
	// fullbankLayerCIRs is how many pool CIRs the per-call timings use.
	fullbankLayerCIRs int
	// swarmNodes is the swarm size N.
	swarmNodes int
}

var defaultSizes = sizes{
	setups:             15,
	sessionRounds:      1000,
	sessionCheckRounds: 8,
	sessionCountRounds: 50,
	fullbankPool:       512,
	fullbankLayerCIRs:  64,
	swarmNodes:         100_000,
}

// outcome is what a workload run measured: metric values by name, the ops
// attempted and failed, the number of latency samples, and the host speed
// relative to the reference host that every reported time is scaled by.
type outcome struct {
	values            map[string]float64
	attempted, failed int64
	samples           int
	speed             float64
}

// checkError is an output check that failed: the run reports no numbers.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// workloads maps each workload name to its bare and traced runs.
var workloads = map[string]struct {
	bare, traced func(config) (*outcome, error)
}{
	"session":  {runSessionBare, runSessionTraced},
	"fullbank": {runFullbankBare, runFullbankTraced},
	"swarm":    {runSwarmBare, runSwarmTraced},
}

// report is the JSON line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload and assembles its report: every end-to-end
// metric for a bare run, every per-layer metric for a traced one.
func run(name string, traced bool, cfg config) (*report, *outcome, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want session, fullbank or swarm)", name)
	}
	runFn, defs := w.bare, endToEnd
	if traced {
		runFn, defs = w.traced, perLayer
	}
	out, err := runFn(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := &report{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !traced {
			return nil, nil, fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, checkFailed("%s %s is not finite", name, d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if rep.Attempted < 1 {
		return nil, nil, checkFailed("%s attempted no ops", name)
	}
	return rep, out, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: session, fullbank, swarm, or all to run the three in turn")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 25, "seconds one run measures")
	traceFlag := flag.Int("trace", 0, "0 measures end to end; 1 runs the traced per-layer measurement")
	flag.Parse()
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, workers: runtime.NumCPU(), sizes: defaultSizes}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"session", "fullbank", "swarm"}
	}
	ok := true
	for _, name := range names {
		ok = runAndPrint(name, *traceFlag == 1, cfg) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// runAndPrint runs one workload and prints its metric table and JSON line;
// it reports whether the run succeeded.
func runAndPrint(name string, traced bool, cfg config) bool {
	rep, out, err := run(name, traced, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var ce *checkError
		if errors.As(err, &ce) {
			line, _ := json.Marshal(report{Correct: false, Metrics: map[string]metric{}})
			fmt.Println(string(line))
		}
		return false
	}
	defs, trace := endToEnd, 0
	if traced {
		defs, trace = perLayer, 1
	}
	fmt.Printf("# workload %s seed %d trace %d workers %d: %d ops attempted, %d failed (fail_ratio %.6f), %d latency samples\n",
		name, cfg.seed, trace, cfg.workers, rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(rep.Attempted), out.samples)
	fmt.Printf("# host speed %.4f of the reference host; times and rates below are scaled to the reference\n", out.speed)
	for _, d := range defs {
		fmt.Printf("# %-32s %16.6g %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(line))
	return true
}
