package main

import (
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

// The swarm workload is the city-scale event engine alone: sim.NewSwarm
// with its defaults at N nodes, run bare on the sharded engine. One op is
// one simulated event; one request is one whole run.

// swarmWorkers is the engine's worker count in the timed runs. With one
// worker per CPU, the runs' speed follows whichever CPU the host slows
// most, and their spread across seeds was twice the one-worker spread; so
// the timed runs use one worker and the check runs one per CPU.
const swarmWorkers = 1

// swarmRun is one run loop's tally.
type swarmRun struct {
	loop *loop
	// first is the first run's result; every later run must repeat it.
	first    *sim.SwarmResult
	mismatch int
}

// runSwarms runs sw back to back for d, at least once, with the given
// engine profiler (nil for the bare run).
func runSwarms(sw *sim.Swarm, workers int, d time.Duration, prof *sim.EngineProfiler, onRun func()) *swarmRun {
	s := &swarmRun{}
	s.loop = runLoop(d, 1, workers, func() (time.Duration, int, int) {
		t0 := time.Now()
		res, err := sw.RunShardedProfiled(workers, prof)
		el := time.Since(t0)
		if err != nil {
			return el, 0, 1
		}
		if s.first == nil {
			s.first = res
		} else if res.Stats != s.first.Stats || res.Events != s.first.Events {
			s.mismatch++
		}
		if onRun != nil {
			onRun()
		}
		return el, res.Events, 0
	})
	return s
}

// check requires every run to repeat the first, and the first to equal a
// run of the same swarm with the given worker count.
func (s *swarmRun) check(sw *sim.Swarm, workers int) error {
	if s.first == nil {
		return checkFailed("swarm: no run succeeded")
	}
	if s.mismatch > 0 {
		return checkFailed("swarm: %d runs differ from the first", s.mismatch)
	}
	ref, err := sw.RunSharded(workers)
	if err != nil {
		return err
	}
	if ref.Stats != s.first.Stats || ref.Events != s.first.Events {
		return checkFailed("swarm: %d-worker run %s (%d events) differs from the %d-worker run %s (%d events)",
			s.first.Workers, s.first.Stats, s.first.Events, ref.Workers, ref.Stats, ref.Events)
	}
	return nil
}

func buildSwarm(cfg config) (*sim.Swarm, float64, error) {
	var sw *sim.Swarm
	setup, err := medianSetup(cfg.sizes.setups, 1, func() error {
		var err error
		sw, err = sim.NewSwarm(sim.SwarmConfig{N: cfg.sizes.swarmNodes, Seed: cfg.seed})
		return err
	})
	return sw, setup, err
}

func runSwarmBare(cfg config) (*outcome, error) {
	sw, setup, err := buildSwarm(cfg)
	if err != nil {
		return nil, err
	}
	s := runSwarms(sw, swarmWorkers, duration(cfg.seconds), nil, nil)
	heap := liveHeapMB()
	if err := s.check(sw, cfg.workers); err != nil {
		return nil, err
	}
	st := s.first.Stats
	values := map[string]float64{
		"found_ratio": ratio(float64(st.Resolved), float64(st.Responses)),
		"err_m":       st.MeanAbsErr(),
	}
	s.loop.endToEnd(values, heap, setup)
	return s.loop.outcome(values), nil
}

func runSwarmTraced(cfg config) (*outcome, error) {
	sw, _, err := buildSwarm(cfg)
	if err != nil {
		return nil, err
	}
	bare := runSwarms(sw, swarmWorkers, halves(cfg.seconds), nil, nil)
	prof := sim.NewEngineProfiler(sim.EngineProfilerConfig{TimelineCap: -1})
	var (
		runs                                float64
		exec, drain, wait, eff, critical    float64
		windows, bus, events, heapHighWater float64
	)
	traced := runSwarms(sw, swarmWorkers, halves(cfg.seconds), prof, func() {
		p := prof.Profile()
		runs++
		exec += p.ExecSeconds
		drain += p.DrainSeconds
		wait += p.BarrierWaitSeconds
		eff += p.ParallelEfficiency
		critical += p.CriticalShardShare
		windows, bus, events = float64(p.Windows), float64(p.BusMessages), float64(p.Events)
		for _, sh := range p.PerShard {
			heapHighWater = max(heapHighWater, float64(sh.HeapHighWater))
		}
	})
	if err := bare.check(sw, cfg.workers); err != nil {
		return nil, err
	}
	if err := traced.check(sw, cfg.workers); err != nil {
		return nil, err
	}
	st := traced.first.Stats
	speed := traced.loop.cal.speed()
	values := map[string]float64{
		"sim.engine_exec_s":               ratio(exec, runs) * speed,
		"sim.engine_drain_s":              ratio(drain, runs) * speed,
		"sim.engine_barrier_wait_s":       ratio(wait, runs) * speed,
		"sim.engine_parallel_efficiency":  ratio(eff, runs),
		"sim.engine_critical_shard_share": ratio(critical, runs),
		"sim.engine_windows":              windows,
		"sim.engine_bus_messages":         bus,
		"sim.engine_events_per_window":    ratio(events, windows),
		"sim.engine_heap_high_water":      heapHighWater,
		"sim.cross_shard_share":           ratio(float64(st.CrossShardFrames), float64(st.Receptions)),
		"trace_overhead":                  traceOverhead(bare.loop.opsPerSecond(), traced.loop.opsPerSecond()),
	}
	return traced.loop.tracedOutcome(bare.loop, values), nil
}
