// Command crsim runs one concurrent-ranging round for a deployment given
// on the command line and prints the per-responder results.
//
// Usage:
//
//	crsim -env hallway -init 2,1 -resp 0:5,1 -resp 1:8,1 -resp 2:12,1
//	crsim -config scenario.json [-rounds N]
//
// Each -resp flag is ID:x,y in meters. With -shapes > 1 and -maxrange > 0
// the combined pulse-shaping × response-position-modulation scheme of the
// paper's Sect. VIII identifies every responder; otherwise ranging is
// anonymous (Sect. IV). A JSON scenario file (see ranging.ScenarioFile)
// replaces the geometry flags entirely.
//
// -pprof addr serves net/http/pprof and expvar on the given address for
// profiling long -rounds runs, plus the session's metrics registry as
// Prometheus text on /metrics and as JSON on /debug/metrics.json (poll it
// with crtop); addr "localhost:0" picks an ephemeral port.
//
// -tracefile path streams the detection flight recorder to a JSONL trace:
// one span per ranging round carrying the trial's ground truth, nested
// protocol and detector spans, and one structured event per
// search-and-subtract iteration. -trace-sample N records every Nth round.
// Analyze the file with crtrace (triage table, span dumps, Chrome trace
// export).
//
// A flag outside its domain fails with exit status 1 before any work
// starts: a negative -swarm, -swarm-workers or -swarm-duration, -rounds
// below 1, or -trace-sample below 1.
//
// -swarm N switches to the sharded parallel event engine and simulates an
// N-node city-scale swarm (mobility, round phases and geometry from the
// seed's split RNG streams), printing engine and ranging summaries.
// -swarm-workers sets the worker count (0 = GOMAXPROCS), -swarm-duration
// the simulated horizon in seconds, and -swarm-verify re-runs the same
// deployment single-worker and fails unless the results are bit-identical.
// -tracefile and -pprof work in swarm mode too: rounds open swarm.round
// flight-recorder spans crtrace can triage, and the debug server exposes
// the live swarm/engine metrics crtop watches.
//
// -engine-profile attaches the sharded-engine execution profiler and
// prints the scaling diagnosis (parallel efficiency, barrier-stall and
// bus-drain breakdown, critical shard, per-worker occupancy);
// -engine-timeline path additionally exports the barrier/worker timeline
// as a Chrome trace (load in chrome://tracing or Perfetto). -swarm-report
// path writes a machine-readable RunReport carrying the swarm metrics and
// the engine diagnosis fields; profiling is observational, so the
// stripped report is bit-identical with and without it (reportcheck
// -require-deterministic verifies exactly that in CI).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/experiments"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
	"github.com/uwb-sim/concurrent-ranging/ranging"
)

type responderFlags []responderSpec

type responderSpec struct {
	id   int
	x, y float64
}

func (r *responderFlags) String() string { return fmt.Sprint(*r) }

func (r *responderFlags) Set(v string) error {
	idPos := strings.SplitN(v, ":", 2)
	if len(idPos) != 2 {
		return fmt.Errorf("want ID:x,y, got %q", v)
	}
	id, err := strconv.Atoi(idPos[0])
	if err != nil {
		return fmt.Errorf("responder ID %q: %w", idPos[0], err)
	}
	x, y, err := parsePoint(idPos[1])
	if err != nil {
		return err
	}
	*r = append(*r, responderSpec{id: id, x: x, y: y})
	return nil
}

func parsePoint(v string) (float64, float64, error) {
	xy := strings.SplitN(v, ",", 2)
	if len(xy) != 2 {
		return 0, 0, fmt.Errorf("want x,y, got %q", v)
	}
	x, err := strconv.ParseFloat(xy[0], 64)
	if err != nil {
		return 0, 0, err
	}
	y, err := strconv.ParseFloat(xy[1], 64)
	if err != nil {
		return 0, 0, err
	}
	return x, y, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "crsim:", err)
		os.Exit(1)
	}
}

// run parses the command line (without the program name) and runs the
// selected mode. A flag outside its domain fails before any work starts.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("crsim", flag.ContinueOnError)
	var resps responderFlags
	env := fs.String("env", ranging.EnvHallway, "environment preset (free-space, hallway, office, industrial)")
	initPos := fs.String("init", "1,1", "initiator position x,y in meters")
	seed := fs.Uint64("seed", 1, "simulation seed")
	shapes := fs.Int("shapes", 1, "number of pulse shapes N_PS (1 = anonymous)")
	maxRange := fs.Float64("maxrange", 0, "max communication range in meters (enables RPM slots)")
	ideal := fs.Bool("ideal", false, "disable the DW1000 8 ns delayed-TX quantization")
	rounds := fs.Int("rounds", 1, "number of ranging rounds to run")
	configPath := fs.String("config", "", "JSON scenario file (replaces the geometry flags)")
	timeline := fs.Bool("trace", false, "print the protocol event timeline of each round")
	traceFile := fs.String("tracefile", "", "stream the detection flight recorder to this JSONL `file` (analyze with crtrace)")
	traceSample := fs.Int("trace-sample", 1, "record every Nth round in the flight recorder")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar on this `address`")
	swarmN := fs.Int("swarm", 0, "simulate an N-node city-scale swarm on the sharded engine instead of a single round")
	swarmWorkers := fs.Int("swarm-workers", 0, "sharded engine worker count for -swarm (0 = GOMAXPROCS)")
	swarmDuration := fs.Float64("swarm-duration", 0, "simulated horizon in seconds for -swarm (0 = default 0.2 s)")
	swarmVerify := fs.Bool("swarm-verify", false, "also run -swarm with 1 worker and fail unless results are bit-identical")
	engineProfile := fs.Bool("engine-profile", false, "attach the sharded-engine execution profiler to -swarm and print the scaling diagnosis")
	engineTimeline := fs.String("engine-timeline", "", "export the -swarm barrier/worker timeline as a Chrome trace to this `file` (implies -engine-profile)")
	swarmReport := fs.String("swarm-report", "", "write a machine-readable -swarm run report to this `path`")
	fs.Var(&resps, "resp", "responder as ID:x,y (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *swarmN < 0:
		return fmt.Errorf("-swarm %d is negative (0 runs a single round)", *swarmN)
	case *swarmWorkers < 0:
		return fmt.Errorf("-swarm-workers %d is negative (0 selects GOMAXPROCS)", *swarmWorkers)
	case !(*swarmDuration >= 0):
		return fmt.Errorf("-swarm-duration %g must be a non-negative number of seconds (0 selects 0.2 s)", *swarmDuration)
	case *rounds < 1:
		return fmt.Errorf("-rounds %d must be at least 1", *rounds)
	case *traceSample < 1:
		return fmt.Errorf("-trace-sample %d must be at least 1 (1 records every round)", *traceSample)
	}

	if *swarmN > 0 {
		return runSwarm(swarmOptions{
			n:            *swarmN,
			workers:      *swarmWorkers,
			duration:     *swarmDuration,
			seed:         *seed,
			verify:       *swarmVerify,
			profile:      *engineProfile || *engineTimeline != "",
			timelinePath: *engineTimeline,
			reportPath:   *swarmReport,
			traceFile:    *traceFile,
			traceSample:  *traceSample,
			pprofAddr:    *pprofAddr,
		})
	}

	var sc *ranging.Scenario
	nResp := len(resps)
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			return err
		}
		defer f.Close()
		sc, err = ranging.LoadScenario(f)
		if err != nil {
			return err
		}
	} else {
		if len(resps) == 0 {
			return fmt.Errorf("at least one -resp (or -config) required")
		}
		ix, iy, err := parsePoint(*initPos)
		if err != nil {
			return fmt.Errorf("initiator position: %w", err)
		}
		sc = ranging.NewScenario(ranging.Config{
			Environment:      *env,
			Seed:             *seed,
			NumShapes:        *shapes,
			MaxRange:         *maxRange,
			IdealTransceiver: *ideal,
		})
		sc.SetInitiator(ix, iy)
		for _, r := range resps {
			sc.AddResponder(r.id, r.x, r.y)
		}
	}
	session, err := sc.Build()
	if err != nil {
		return err
	}
	if *timeline {
		session.SetTracer(func(e ranging.TraceEvent) { fmt.Println("  " + e.String()) })
	}
	if *traceFile != "" {
		f, ferr := os.Create(*traceFile)
		if ferr != nil {
			return fmt.Errorf("tracefile: %w", ferr)
		}
		tr := trace.New(trace.Config{Writer: f, SampleEvery: *traceSample})
		session.SetFlightRecorder(tr)
		defer func() {
			ferr := tr.Flush()
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
			if ferr != nil && err == nil {
				err = fmt.Errorf("tracefile: %w", ferr)
			}
			st := tr.Stats()
			fmt.Fprintf(os.Stderr, "crsim: trace: %d events, %d/%d rounds sampled -> %s\n",
				st.Events, st.RootSpans-st.SampledOut, st.RootSpans, *traceFile)
		}()
	}
	if *pprofAddr != "" {
		reg := obs.NewRegistry()
		session.SetRecorder(reg)
		dbg, err := obs.ServeDebug(*pprofAddr, reg)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "crsim: debug server on http://%s/debug/pprof/ (/metrics, /debug/metrics.json)\n", dbg.Addr)
	}
	return runRounds(session, nResp, *rounds)
}

func runRounds(session *ranging.Session, nResp, rounds int) error {
	fmt.Printf("%d responders, scheme capacity %d, Δ_RESP %.0f µs\n",
		nResp, session.Capacity(), session.ResponseDelay()*1e6)
	for round := 0; round < rounds; round++ {
		res, err := session.Run()
		if err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		fmt.Printf("round %d: %d messages on air, anchor d_TWR = %.3f m\n",
			round, res.MessagesOnAir, res.AnchorDistance)
		fmt.Printf("  %-10s %-6s %-6s %-10s %-10s %-8s\n",
			"responder", "slot", "shape", "dist [m]", "true [m]", "err [m]")
		for _, m := range res.Measurements {
			id := fmt.Sprint(m.ResponderID)
			if m.ResponderID < 0 {
				id = "anon"
			}
			anchor := ""
			if m.Anchor {
				anchor = " (anchor)"
			}
			fmt.Printf("  %-10s %-6d %-6d %-10.3f %-10.3f %-+8.3f%s\n",
				id, m.Slot, m.Shape, m.Distance, m.TrueDistance, m.Error(), anchor)
		}
	}
	return nil
}

// swarmOptions collects the flag-derived swarm-mode settings.
type swarmOptions struct {
	n        int
	workers  int
	duration float64
	seed     uint64
	verify   bool
	// profile attaches the engine execution profiler; timelinePath also
	// exports the barrier/worker timeline as a Chrome trace.
	profile      bool
	timelinePath string
	// reportPath writes a RunReport (tool "crsim", one "swarm"
	// experiment) with the registry snapshot and engine diagnosis fields.
	reportPath string
	// traceFile/traceSample stream swarm.round flight-recorder spans.
	traceFile   string
	traceSample int
	pprofAddr   string
}

// runSwarm simulates an N-node swarm on the sharded event engine and
// prints a one-screen summary. With verify it re-runs the same
// deployment single-worker and fails unless the merged stats and event
// counts are bit-identical — the engine's determinism contract, which an
// attached profiler or flight recorder must not disturb.
func runSwarm(opts swarmOptions) (err error) {
	cfg := sim.SwarmConfig{N: opts.n, Seed: opts.seed, Duration: opts.duration}
	sw, err := sim.NewSwarm(cfg)
	if err != nil {
		return err
	}
	workers := opts.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reg := obs.NewRegistry()
	sw.SetRecorder(reg)
	if opts.pprofAddr != "" {
		dbg, derr := obs.ServeDebug(opts.pprofAddr, reg)
		if derr != nil {
			return fmt.Errorf("pprof: %w", derr)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "crsim: debug server on http://%s/debug/pprof/ (/metrics, /debug/metrics.json)\n", dbg.Addr)
	}
	if opts.traceFile != "" {
		f, ferr := os.Create(opts.traceFile)
		if ferr != nil {
			return fmt.Errorf("tracefile: %w", ferr)
		}
		tr := trace.New(trace.Config{Writer: f, SampleEvery: opts.traceSample})
		tr.SetMetrics(reg)
		sw.SetFlightRecorder(tr)
		defer func() {
			ferr := tr.Flush()
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
			if ferr != nil && err == nil {
				err = fmt.Errorf("tracefile: %w", ferr)
			}
			st := tr.Stats()
			fmt.Fprintf(os.Stderr, "crsim: trace: %d events, %d/%d rounds sampled -> %s\n",
				st.Events, st.RootSpans-st.SampledOut, st.RootSpans, opts.traceFile)
		}()
	}
	var prof *sim.EngineProfiler
	if opts.profile {
		prof = sim.NewEngineProfiler(sim.EngineProfilerConfig{Recorder: reg})
	}
	start := time.Now()
	res, err := sw.RunShardedProfiled(workers, prof)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	fmt.Printf("swarm: %d nodes over %.0f × %.0f m, %d shards, lookahead %.1f µs\n",
		opts.n, sw.Side(), sw.Side(), sw.Shards(), sw.Lookahead()*1e6)
	fmt.Printf("engine: %d workers, %d barrier windows, %d events in %.3f s (%.3g events/s)\n",
		res.Workers, res.Windows, res.Events, wall.Seconds(), float64(res.Events)/wall.Seconds())
	st := res.Stats
	fmt.Printf("rounds: %d started, %d completed (%d empty), %d cross-shard frames (%.2f%% of %d)\n",
		st.RoundsStarted, st.RoundsCompleted, st.EmptyRounds,
		st.CrossShardFrames, 100*float64(st.CrossShardFrames)/float64(max(st.Frames, 1)), st.Frames)
	fmt.Printf("ranging: %d responses, %d resolved, %d slot collisions, %d busy skips, mean |err| %.3f m\n",
		st.Responses, st.Resolved, st.SlotCollisions, st.BusySkips, st.MeanAbsErr())
	var profile *sim.EngineProfile
	if prof != nil {
		profile = prof.Profile()
		fmt.Print(profile.String())
		if opts.timelinePath != "" {
			f, ferr := os.Create(opts.timelinePath)
			if ferr != nil {
				return fmt.Errorf("engine-timeline: %w", ferr)
			}
			werr := prof.WriteChromeTrace(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("engine-timeline: %w", werr)
			}
			fmt.Fprintf(os.Stderr, "crsim: engine timeline (%d slices) -> %s\n",
				profile.TimelineSlices, opts.timelinePath)
		}
	}
	if opts.verify {
		// The reference run is bare: no recorder, flight recorder, or
		// profiler — so the comparison also proves instrumentation is
		// observational.
		sw.SetRecorder(nil)
		sw.SetFlightRecorder(nil)
		ref, verr := sw.RunSharded(1)
		sw.SetRecorder(reg)
		if verr != nil {
			return fmt.Errorf("verify: %w", verr)
		}
		if ref.Stats != res.Stats || ref.Events != res.Events {
			return fmt.Errorf("verify: %d-worker run diverged from 1-worker reference:\n  %d workers: %s\n  1 worker:  %s",
				res.Workers, res.Workers, res.Stats.String(), ref.Stats.String())
		}
		fmt.Printf("verify: %d-worker run bit-identical to 1-worker reference\n", res.Workers)
	}
	if opts.reportPath != "" {
		if rerr := writeSwarmReport(opts, reg, sw, res, profile, wall); rerr != nil {
			return rerr
		}
	}
	return nil
}

// writeSwarmReport assembles the swarm run's RunReport: the registry
// snapshot (swarm tallies, live engine gauges, trace mirror when tracing),
// one "swarm" experiment entry carrying throughput and — when profiled —
// the engine diagnosis fields. The swarm run is one trial, recorded as
// such so the report passes the same liveness checks campaign reports do.
// Every profiler-only contribution is wall-time-class, so the stripped
// report is bit-identical with and without -engine-profile.
func writeSwarmReport(opts swarmOptions, reg *obs.Registry, sw *sim.Swarm, res *sim.SwarmResult, profile *sim.EngineProfile, wall time.Duration) error {
	sw.Record(reg, res)
	reg.Count(experiments.MetricTrials, 1)
	reg.Observe(experiments.MetricTrialSeconds, wall.Seconds())
	report := obs.NewRunReport("crsim", opts.seed, 1)
	er := obs.ExperimentReport{
		Name:        "swarm",
		WallSeconds: wall.Seconds(),
	}
	if secs := wall.Seconds(); secs > 0 {
		er.EventsPerSecond = float64(res.Events) / secs
		er.RoundsPerSecond = float64(res.Stats.RoundsCompleted) / secs
	}
	if profile != nil {
		er.EngineParallelEfficiency = profile.ParallelEfficiency
		er.EngineBarrierStallPct = profile.BarrierStallPct
		er.EngineDrainPct = profile.DrainPct
		er.EngineCriticalShard = profile.CriticalShard
		er.EngineCriticalShardPct = 100 * profile.CriticalShardShare
	}
	report.Experiments = append(report.Experiments, er)
	report.Finish(reg.Snapshot(), wall)
	if err := report.Validate(); err != nil {
		return fmt.Errorf("swarm-report: %w", err)
	}
	if err := report.WriteFile(opts.reportPath); err != nil {
		return fmt.Errorf("swarm-report: %w", err)
	}
	fmt.Fprintf(os.Stderr, "crsim: swarm report -> %s\n", opts.reportPath)
	return nil
}
