package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

// SwarmScalePoint is one swept node count.
type SwarmScalePoint struct {
	// N is the node count; Shards and Workers describe the engine.
	N, Shards, Workers int
	// LookaheadMicros is the conservative window length in µs.
	LookaheadMicros float64
	// Windows is the number of barrier windows of the W-worker run.
	Windows int
	// Events is the number of discrete events executed.
	Events int
	// Stats is the merged protocol tally (bit-identical at any worker
	// count; verified against a 1-worker run before reporting).
	Stats sim.SwarmStats
	// CrossShardPct is the share of receptions that crossed the bus.
	CrossShardPct float64
	// WallSeconds1 and WallSecondsW are the 1-worker and W-worker run
	// times (wall-time fields).
	WallSeconds1, WallSecondsW float64
	// EventsPerSec and RoundsPerSec are W-worker throughputs (wall).
	EventsPerSec, RoundsPerSec float64
	// Speedup is WallSeconds1 / WallSecondsW (wall).
	Speedup float64
}

// SwarmScaleResult is the swarm scale sweep of the sharded parallel
// engine: N-node city deployments (every 10th node an initiator running
// the Sect. VIII combined scheme against the responders in range) are
// simulated on the spatially sharded engine, once with 1 worker and once
// with the full pool. The two runs must agree bit for bit — the sweep
// fails otherwise. The table prints each W-worker run's throughput; the
// repository's events/s measurement is perfbench's bare swarm workload.
type SwarmScaleResult struct {
	// Points holds one entry per swept N, ascending.
	Points []SwarmScalePoint
	// Workers is the pool size used for the W-worker runs.
	Workers int
	// Engine is the engine profiler's scaling diagnosis of the last
	// (largest) W-worker run, the source of the run report's engine_*
	// fields; nil when the Env has no Recorder (wall-time-class).
	Engine *sim.EngineProfile
}

// swarmSizes is the full sweep ladder.
var swarmSizes = []int{100, 1000, 10000, 100000}

// SwarmScale runs the sweep on a GOMAXPROCS-worker engine. trials bounds
// the sweep like the other Monte-Carlo knobs: 0 runs the full ladder up to
// 100 000 nodes, otherwise the largest N is capped at 4000·trials (so
// trials 3 previews up to 10k nodes). The sizes run in sequence, each
// timed as one campaign unit.
func SwarmScale(env *Env, trials int, seed uint64) (*SwarmScaleResult, error) {
	sizes := swarmSizes
	if trials > 0 {
		n := 1
		for n < len(sizes) && sizes[n] <= 4000*trials {
			n++
		}
		sizes = sizes[:n]
	}
	workers := runtime.GOMAXPROCS(0)
	res := &SwarmScaleResult{Workers: workers}
	m := newMeter(env, len(sizes))
	defer m.finish()
	rec := env.recorder()
	for _, n := range sizes {
		err := m.timeTrial(func() error {
			sw, err := sim.NewSwarm(sim.SwarmConfig{N: n, Seed: seed})
			if err != nil {
				return fmt.Errorf("swarm N=%d: %w", n, err)
			}
			w1Start := wallNow()
			ref, err := sw.RunSharded(1)
			if err != nil {
				return fmt.Errorf("swarm N=%d workers=1: %w", n, err)
			}
			w1 := wallSince(w1Start).Seconds()
			// The W-worker run is the instrumented one: live metrics, flight
			// spans, and the engine profiler all attach here, and all three
			// are observational — the divergence gate below still compares
			// it bit-for-bit against the bare 1-worker reference.
			sw.SetRecorder(rec)
			sw.SetFlightRecorder(env.flight())
			var prof *sim.EngineProfiler
			if rec != nil {
				prof = sim.NewEngineProfiler(sim.EngineProfilerConfig{Recorder: rec})
			}
			wStart := wallNow()
			run, err := sw.RunShardedProfiled(workers, prof)
			if err != nil {
				return fmt.Errorf("swarm N=%d workers=%d: %w", n, workers, err)
			}
			wSecs := wallSince(wStart).Seconds()
			sw.SetRecorder(nil)
			sw.SetFlightRecorder(nil)
			if prof != nil {
				res.Engine = prof.Profile()
			}
			// The determinism contract is a hard gate, not a statistic: a
			// W-worker run that differs from the 1-worker run in any bit of
			// the merged stats or the event count is a scheduling leak.
			if run.Stats != ref.Stats || run.Events != ref.Events {
				return fmt.Errorf("swarm N=%d: %d-worker run diverged from 1-worker run\n  1: %s (%d events)\n  %d: %s (%d events)",
					n, workers, ref.Stats, ref.Events, workers, run.Stats, run.Events)
			}
			sw.Record(rec, run)
			pt := SwarmScalePoint{
				N:               n,
				Shards:          run.Shards,
				Workers:         run.Workers,
				LookaheadMicros: sw.Lookahead() * 1e6,
				Windows:         run.Windows,
				Events:          run.Events,
				Stats:           run.Stats,
				WallSeconds1:    w1,
				WallSecondsW:    wSecs,
			}
			if run.Stats.Receptions > 0 {
				pt.CrossShardPct = 100 * float64(run.Stats.CrossShardFrames) / float64(run.Stats.Receptions)
			}
			if wSecs > 0 {
				pt.EventsPerSec = float64(run.Events) / wSecs
				pt.RoundsPerSec = float64(run.Stats.RoundsCompleted) / wSecs
			}
			if wSecs > 0 && w1 > 0 {
				pt.Speedup = w1 / wSecs
			}
			res.Points = append(res.Points, pt)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render formats the sweep. Every wall-derived column uses a fixed-width
// format so the rendered byte count — which the run report records as
// output_bytes, a determinism-gated field — does not vary run to run.
func (r *SwarmScaleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "--- Swarm scale: sharded city-scale concurrent ranging (%d workers) ---\n", r.Workers)
	fmt.Fprintf(&b, "%8s %7s %10s %8s %9s %8s %8s %7s %8s %8s %10s %8s\n",
		"N", "shards", "lookahead", "windows", "events", "rounds", "resolved", "xshard%", "err[m]", "wall[s]", "events/s", "speedup")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %7d %8.1fµs %8d %9d %8d %8d %7.2f %8.3f %8.3f %10.3e %8.2f\n",
			p.N, p.Shards, p.LookaheadMicros, p.Windows, p.Events,
			p.Stats.RoundsCompleted, p.Stats.Resolved, p.CrossShardPct,
			p.Stats.MeanAbsErr(), p.WallSecondsW, p.EventsPerSec, p.Speedup)
	}
	return b.String()
}
