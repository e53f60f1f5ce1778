// Command crbench regenerates the tables and figures of "Concurrent
// Ranging with Ultra-Wideband Radios" (Großwindhager et al., ICDCS 2018)
// from the simulation.
//
// Usage:
//
//	crbench [-trials N] [-seed S] [-json path] [-progress] [-pprof addr] [experiment ...]
//
// Experiments: fig1 fig2 sec3 fig4 fig5 sec5 fig6 table1 sec6 sec7 fig8
// sec8 campaign capture fullbank swarm ablation. Running without arguments
// executes all of them. The -trials flag scales the Monte-Carlo experiments: 0 keeps each
// experiment's paper-faithful default (e.g. 5000 SS-TWR operations for
// Sect. V), smaller values give quick previews.
//
// Observability:
//
//   - -json path writes a machine-readable run report: per-experiment wall
//     time and output size, the full metrics snapshot (detector diagnostics,
//     simulator frame/collision counters, per-trial timing histograms,
//     labeled per-experiment/worker series), and Go runtime stats. The
//     report is deterministic for a fixed seed and trial count once
//     wall-time fields are stripped. -json - writes the report to stdout
//     and moves the rendered tables to stderr, so piped consumers see
//     exactly one JSON document (progress always goes to stderr).
//   - -progress streams live trial progress (done/total, ETA) to stderr.
//   - -pprof addr serves the debug surface on the given address for the
//     run's duration: net/http/pprof, expvar's standard variables on
//     /debug/vars, Prometheus text exposition on /metrics, and the live
//     JSON snapshot on /debug/metrics.json (poll it with crtop, which
//     derives rates and interval quantiles from successive polls). Use
//     addr "localhost:0" for an ephemeral port.
//   - -tracefile path streams the detection flight recorder to a JSONL
//     trace: campaign/round spans with ground truth plus one structured
//     event per detector search-and-subtract iteration. -trace-sample N
//     records every Nth root span (campaigns stream millions of events
//     otherwise). Analyze with crtrace.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/experiments"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
)

// experiment is one crbench entry.
type experiment struct {
	name string
	run  runFunc
}

// runFunc runs an experiment, renders its result and copies the
// sharded-engine diagnosis it measured, if any, into er.
type runFunc func(env *experiments.Env, trials int, seed uint64, er *obs.ExperimentReport) (string, error)

// registry lists the experiments in paper order, the run-everything order.
var registry = []experiment{
	{"fig1", func(*experiments.Env, int, uint64, *obs.ExperimentReport) (string, error) {
		return render(experiments.Fig1())
	}},
	{"fig2", func(_ *experiments.Env, _ int, seed uint64, _ *obs.ExperimentReport) (string, error) {
		return render(experiments.Fig2(seed))
	}},
	{"sec3", func(*experiments.Env, int, uint64, *obs.ExperimentReport) (string, error) {
		d, err := render(experiments.Sec3Delay())
		if err != nil {
			return "", err
		}
		m, err := render(experiments.Sec3Messages(nil))
		if err != nil {
			return "", err
		}
		return d + m, nil
	}},
	{"fig4", func(env *experiments.Env, trials int, seed uint64, _ *obs.ExperimentReport) (string, error) {
		real, err := render(experiments.Fig4(env, trials, seed, false))
		if err != nil {
			return "", err
		}
		ideal, err := render(experiments.Fig4(env, trials, seed, true))
		if err != nil {
			return "", err
		}
		return "--- DW1000 delayed-TX quantization ---\n" + real +
			"--- ideal transceiver ---\n" + ideal, nil
	}},
	{"fig5", func(*experiments.Env, int, uint64, *obs.ExperimentReport) (string, error) {
		return render(experiments.Fig5())
	}},
	{"sec5", monteCarlo(experiments.Sec5)},
	{"fig6", func(env *experiments.Env, _ int, seed uint64, _ *obs.ExperimentReport) (string, error) {
		return render(experiments.Fig6(env, seed))
	}},
	{"table1", monteCarlo(experiments.Table1)},
	{"sec6", monteCarlo(experiments.Sec6)},
	{"sec7", func(*experiments.Env, int, uint64, *obs.ExperimentReport) (string, error) {
		return render(experiments.Sec7(nil))
	}},
	{"fig8", func(env *experiments.Env, trials int, seed uint64, _ *obs.ExperimentReport) (string, error) {
		return render(experiments.Fig8(env, trials, seed, false))
	}},
	{"sec8", func(*experiments.Env, int, uint64, *obs.ExperimentReport) (string, error) {
		return render(experiments.Sec8())
	}},
	{"campaign", func(env *experiments.Env, _ int, seed uint64, _ *obs.ExperimentReport) (string, error) {
		return render(experiments.Campaign(env, nil, seed))
	}},
	{"capture", monteCarlo(experiments.Capture)},
	{"fullbank", monteCarlo(experiments.FullBank)},
	{"swarm", func(env *experiments.Env, trials int, seed uint64, er *obs.ExperimentReport) (string, error) {
		r, err := experiments.SwarmScale(env, trials, seed)
		if err != nil {
			return "", err
		}
		if prof := r.Engine; prof != nil {
			er.EngineParallelEfficiency = prof.ParallelEfficiency
			er.EngineBarrierStallPct = prof.BarrierStallPct
			er.EngineDrainPct = prof.DrainPct
			er.EngineCriticalShard = prof.CriticalShard
			er.EngineCriticalShardPct = 100 * prof.CriticalShardShare
		}
		return r.Render(), nil
	}},
	{"ablation", func(env *experiments.Env, trials int, seed uint64, er *obs.ExperimentReport) (string, error) {
		var out strings.Builder
		for _, ablate := range []runFunc{
			monteCarlo(experiments.AblationUpsample),
			monteCarlo(experiments.AblationQuantization),
			monteCarlo(experiments.AblationThreshold),
			monteCarlo(experiments.AblationRefinement),
			monteCarlo(experiments.AblationSlotPlan),
		} {
			s, err := ablate(env, trials, seed, er)
			if err != nil {
				return "", err
			}
			out.WriteString(s)
		}
		return out.String(), nil
	}},
}

// render returns r's rendering, or err.
func render[R interface{ Render() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// monteCarlo runs a Monte-Carlo experiment of the shared (env, trials,
// seed) call shape and renders its result.
func monteCarlo[R interface{ Render() string }](f func(*experiments.Env, int, uint64) (R, error)) runFunc {
	return func(env *experiments.Env, trials int, seed uint64, _ *obs.ExperimentReport) (string, error) {
		return render(f(env, trials, seed))
	}
}

// lookup finds the named experiment, case-insensitively.
func lookup(name string) (experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.name, name) {
			return e, true
		}
	}
	return experiment{}, false
}

// experimentNames lists the registry's names in order.
func experimentNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

func main() {
	names, cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag set already printed the error and the usage
	}
	cfg.Stdout, cfg.Stderr = os.Stdout, os.Stderr
	if _, err := run(names, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "crbench:", err)
		os.Exit(1)
	}
}

// parseFlags parses the command line into the experiment names (all of
// them when none is given) and the run configuration, writing parse
// errors and the usage text to stderr. The returned configuration has no
// Stdout or Stderr yet.
func parseFlags(args []string, stderr io.Writer) ([]string, runConfig, error) {
	fs := flag.NewFlagSet("crbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trials := fs.Int("trials", 0, "Monte-Carlo trials per experiment (0 = paper-faithful defaults)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	jsonPath := fs.String("json", "", "write a machine-readable run report to this `path`")
	progress := fs.Bool("progress", false, "stream live trial progress to stderr")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar on this `address`")
	traceFile := fs.String("tracefile", "", "stream the detection flight recorder to this JSONL `file` (analyze with crtrace)")
	traceSample := fs.Int("trace-sample", 1, "record every Nth root span in the flight recorder")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: crbench [-trials N] [-seed S] [-json path] [-progress] [-pprof addr] [-tracefile path] [experiment ...]\n")
		fmt.Fprintf(stderr, "experiments: %s (default: all)\n", strings.Join(experimentNames(), " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return nil, runConfig{}, err
	}
	names := fs.Args()
	if len(names) == 0 {
		names = experimentNames()
	}
	return names, runConfig{
		Trials:      *trials,
		Seed:        *seed,
		JSONPath:    *jsonPath,
		Progress:    *progress,
		PprofAddr:   *pprofAddr,
		TraceFile:   *traceFile,
		TraceSample: *traceSample,
	}, nil
}

// runConfig collects the flag-derived settings so tests can drive run
// without a process.
type runConfig struct {
	Trials      int
	Seed        uint64
	JSONPath    string
	Progress    bool
	PprofAddr   string
	TraceFile   string
	TraceSample int
	Stdout      io.Writer
	Stderr      io.Writer
}

// run executes the named experiments under full instrumentation and
// returns the populated run report (also written to cfg.JSONPath when
// set). Unknown names, a negative trial count and a trace sample below 1
// fail before any experiment does work.
func run(names []string, cfg runConfig) (report *obs.RunReport, err error) {
	if cfg.Trials < 0 {
		return nil, fmt.Errorf("-trials %d is negative (0 selects the paper-faithful defaults)", cfg.Trials)
	}
	if cfg.TraceSample < 1 {
		return nil, fmt.Errorf("-trace-sample %d must be at least 1 (1 records every root span)", cfg.TraceSample)
	}
	selected := make([]experiment, len(names))
	for i, name := range names {
		e, ok := lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (have: %s)", name, strings.Join(experimentNames(), " "))
		}
		selected[i] = e
	}

	reg := obs.NewRegistry()
	if cfg.PprofAddr != "" {
		dbg, err := obs.ServeDebug(cfg.PprofAddr, reg)
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(cfg.Stderr, "crbench: debug server on http://%s/debug/pprof/ (/metrics, /debug/metrics.json)\n", dbg.Addr)
	}
	var flight *trace.Tracer
	if cfg.TraceFile != "" {
		f, ferr := os.Create(cfg.TraceFile)
		if ferr != nil {
			return nil, fmt.Errorf("tracefile: %w", ferr)
		}
		flight = trace.New(trace.Config{Writer: f, SampleEvery: cfg.TraceSample})
		flight.SetMetrics(reg)
		defer func() {
			ferr := flight.Flush()
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
			if ferr != nil && err == nil {
				report, err = nil, fmt.Errorf("tracefile: %w", ferr)
			}
			st := flight.Stats()
			fmt.Fprintf(cfg.Stderr, "crbench: trace: %d events, %d/%d root spans sampled -> %s\n",
				st.Events, st.RootSpans-st.SampledOut, st.RootSpans, cfg.TraceFile)
		}()
	}
	printer := newProgressPrinter(cfg.Stderr, cfg.Progress)

	// -json - dedicates stdout to the report alone; the rendered tables
	// move to stderr so piped consumers parse exactly one JSON document.
	tableW := cfg.Stdout
	if cfg.JSONPath == "-" {
		tableW = cfg.Stderr
	}

	report = obs.NewRunReport("crbench", cfg.Seed, cfg.Trials)
	start := time.Now()
	for _, e := range selected {
		printer.setLabel(e.name)
		env := &experiments.Env{
			Recorder:   reg,
			Flight:     flight,
			Progress:   printer.update,
			Experiment: e.name,
		}
		er := obs.ExperimentReport{Name: e.name}
		t0 := time.Now()
		out, err := e.run(env, cfg.Trials, cfg.Seed, &er)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		printer.clear()
		er.WallSeconds = time.Since(t0).Seconds()
		er.OutputBytes = len(out)
		report.Experiments = append(report.Experiments, er)
		fmt.Fprint(tableW, out)
		fmt.Fprintln(tableW)
	}
	report.Finish(reg.Snapshot(), time.Since(start))
	if err := report.Validate(); err != nil {
		return nil, err
	}
	switch cfg.JSONPath {
	case "":
	case "-":
		if err := report.Encode(cfg.Stdout); err != nil {
			return nil, fmt.Errorf("writing report: %w", err)
		}
	default:
		if err := report.WriteFile(cfg.JSONPath); err != nil {
			return nil, fmt.Errorf("writing report: %w", err)
		}
	}
	return report, nil
}

// progressPrinter renders experiments.Progress updates as a single
// rewritten stderr line, rate-limited so tight trial loops don't flood the
// terminal. It is safe for concurrent use (campaign workers all report).
type progressPrinter struct {
	w       io.Writer
	enabled bool

	mu    sync.Mutex
	label string
	last  time.Time
	dirty bool
}

func newProgressPrinter(w io.Writer, enabled bool) *progressPrinter {
	return &progressPrinter{w: w, enabled: enabled}
}

// setLabel names the experiment shown alongside subsequent updates.
func (p *progressPrinter) setLabel(name string) {
	if !p.enabled {
		return
	}
	p.mu.Lock()
	p.label = name
	p.last = time.Time{}
	p.mu.Unlock()
}

// update implements experiments.ProgressFunc.
func (p *progressPrinter) update(pr experiments.Progress) {
	if !p.enabled {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// At most ~5 updates/s, but always show the final trial so the bar
	// ends at 100%.
	if pr.Done < pr.Total && time.Since(p.last) < 200*time.Millisecond {
		return
	}
	p.last = time.Now()
	p.dirty = true
	eta := ""
	if pr.Remaining > 0 {
		eta = fmt.Sprintf(" eta %s", pr.Remaining.Round(time.Second))
	}
	percent := 100.0
	if pr.Total > 0 {
		percent = 100 * float64(pr.Done) / float64(pr.Total)
	}
	fmt.Fprintf(p.w, "\r\x1b[2K%s: %d/%d trials (%.0f%%)%s",
		p.label, pr.Done, pr.Total, percent, eta)
}

// clear ends the progress line before regular output resumes.
func (p *progressPrinter) clear() {
	if !p.enabled {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dirty {
		fmt.Fprint(p.w, "\r\x1b[2K")
		p.dirty = false
	}
}
