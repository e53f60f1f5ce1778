package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
)

// tickClock returns a deterministic clock advancing 1 ms per call. Only
// valid for Workers ≤ 1 (no concurrent callers).
func tickClock() func() float64 {
	var t float64
	return func() float64 {
		t += 1e-3
		return t
	}
}

// profiledChain builds a 3-shard engine with a known event/bus pattern:
//
//	window 1: shard 0 runs 2 seeded events (heap depth 2) and sends one
//	          message to shard 1
//	window 2: shard 1 runs 1 event and sends one message to shard 2
//	window 3: shard 2 runs 1 event
func profiledChain(t *testing.T, p *EngineProfiler) *ShardedEngine {
	t.Helper()
	se, err := NewShardedEngine(ShardedConfig{Shards: 3, Workers: 1, Lookahead: 1})
	if err != nil {
		t.Fatal(err)
	}
	se.SetProfiler(p)
	if err := se.Schedule(0, 0.1, func(Scheduler) {}); err != nil {
		t.Fatal(err)
	}
	err = se.Schedule(0, 0.2, func(sc Scheduler) {
		if err := sc.Send(1, 1.5, func(sc Scheduler) {
			if err := sc.Send(2, 3.0, func(Scheduler) {}); err != nil {
				sc.Fail(err)
			}
		}); err != nil {
			sc.Fail(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return se
}

func TestEngineProfilerAggregates(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewEngineProfiler(EngineProfilerConfig{Clock: tickClock(), Recorder: reg})
	se := profiledChain(t, p)
	total, err := se.Run()
	if err != nil {
		t.Fatal(err)
	}
	ep := p.Profile()
	if ep.Shards != 3 || ep.Workers != 1 {
		t.Fatalf("shape = %d shards / %d workers", ep.Shards, ep.Workers)
	}
	if ep.Windows != se.Windows() || ep.Windows != 3 {
		t.Fatalf("profiled %d windows, engine ran %d (want 3)", ep.Windows, se.Windows())
	}
	if int(ep.Events) != total || total != 4 {
		t.Fatalf("profiled %d events, engine executed %d (want 4)", ep.Events, total)
	}
	if ep.BusMessages != 2 {
		t.Fatalf("bus messages = %d, want 2", ep.BusMessages)
	}
	if len(ep.PerShard) != 3 {
		t.Fatalf("%d shard profiles, want 3", len(ep.PerShard))
	}
	s0 := ep.PerShard[0]
	if s0.Events != 2 || s0.Windows != 1 || s0.BusMessages != 1 || s0.HeapHighWater < 2 {
		t.Fatalf("shard 0 profile = %+v", s0)
	}
	if ep.PerShard[1].Events != 1 || ep.PerShard[1].BusMessages != 1 || ep.PerShard[2].Events != 1 {
		t.Fatalf("shard profiles = %+v", ep.PerShard)
	}
	// The tick clock makes every duration exact: each of the 3 windows is
	// one runShard span (1 ms busy) inside a 3 ms exec phase (begin + two
	// runShard ticks + execDone) followed by a 1 ms drain.
	const tick, eps = 1e-3, 1e-12
	if math.Abs(ep.BusySeconds-3*tick) > eps {
		t.Errorf("busy = %g, want %g", ep.BusySeconds, 3*tick)
	}
	if math.Abs(ep.ExecSeconds-9*tick) > eps || math.Abs(ep.WorkerSeconds-9*tick) > eps {
		t.Errorf("exec = %g, worker = %g, want %g", ep.ExecSeconds, ep.WorkerSeconds, 9*tick)
	}
	if math.Abs(ep.ParallelEfficiency-1.0/3) > eps {
		t.Errorf("efficiency = %g, want 1/3", ep.ParallelEfficiency)
	}
	if math.Abs(ep.BusySeconds+ep.BarrierWaitSeconds-ep.WorkerSeconds) > eps {
		t.Errorf("busy %g + barrier wait %g != worker capacity %g",
			ep.BusySeconds, ep.BarrierWaitSeconds, ep.WorkerSeconds)
	}
	if math.Abs(ep.BarrierStallPct-100.0*2/3) > 1e-9 {
		t.Errorf("stall = %g%%, want %g%%", ep.BarrierStallPct, 100.0*2/3)
	}
	if math.Abs(ep.DrainPct-25) > 1e-9 {
		t.Errorf("drain = %g%%, want 25%%", ep.DrainPct)
	}
	// Every shard is equally busy (up to float rounding of the tick
	// differences), so the critical share is one third.
	if ep.CriticalShard < 0 || ep.CriticalShard > 2 || math.Abs(ep.CriticalShardShare-1.0/3) > 1e-9 {
		t.Errorf("critical shard %d share %g, want share 1/3", ep.CriticalShard, ep.CriticalShardShare)
	}
	if len(ep.PerWorker) != 1 || ep.PerWorker[0].ShardWindows != 3 ||
		math.Abs(ep.PerWorker[0].BusySeconds-3*tick) > eps {
		t.Errorf("worker profile = %+v", ep.PerWorker)
	}
	if ep.TimelineSlices != 3 || ep.TimelineDropped != 0 {
		t.Errorf("timeline %d slices / %d dropped, want 3 / 0", ep.TimelineSlices, ep.TimelineDropped)
	}
	// The live metric mirror tracks the aggregates.
	snap := reg.Snapshot()
	if v, ok := snap.GaugeValue(MetricEngineWindowsLive); !ok || v != 3 {
		t.Errorf("windows gauge = %v %v", v, ok)
	}
	if v, ok := snap.GaugeValue(MetricEngineBusLive); !ok || v != 2 {
		t.Errorf("bus gauge = %v %v", v, ok)
	}
	if v, ok := snap.GaugeValue(MetricEngineEfficiencyLive); !ok || math.Abs(v-1.0/3) > eps {
		t.Errorf("efficiency gauge = %v %v", v, ok)
	}
	occ := snap.GaugeSeries(MetricEngineWorkerOccupancyLive)
	if len(occ) != 1 || occ[0].Labels[0].Value != "0" {
		t.Fatalf("occupancy series = %+v, want one for worker 0", occ)
	}
	if math.Abs(occ[0].Value-100.0/3) > 1e-9 {
		t.Errorf("worker 0 occupancy = %g%%, want %g%%", occ[0].Value, 100.0/3)
	}
}

func TestEngineProfilerTimelineCap(t *testing.T) {
	p := NewEngineProfiler(EngineProfilerConfig{Clock: tickClock(), TimelineCap: 2})
	se := profiledChain(t, p)
	if _, err := se.Run(); err != nil {
		t.Fatal(err)
	}
	ep := p.Profile()
	if ep.TimelineSlices != 2 || ep.TimelineDropped != 1 {
		t.Fatalf("timeline %d slices / %d dropped, want 2 / 1", ep.TimelineSlices, ep.TimelineDropped)
	}
	// Aggregates keep accumulating past the cap.
	if ep.Events != 4 || ep.Windows != 3 {
		t.Fatalf("aggregates truncated with the timeline: %+v", ep)
	}
}

// TestEngineProfilerChromeTrace pins the track layout: one coordinator
// track plus one track per worker-pool slot, even when a window never
// fans out to every slot.
func TestEngineProfilerChromeTrace(t *testing.T) {
	cfg := boundarySwarmConfig(300, 3)
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	p := NewEngineProfiler(EngineProfilerConfig{})
	if _, err := sw.RunShardedProfiled(workers, p); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			TID  uint64  `json:"tid"`
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("empty timeline")
	}
	tids := map[uint64]bool{}
	names := map[string]int{}
	for _, ev := range out.TraceEvents {
		tids[ev.TID] = true
		names[ev.Name]++
		if ev.Ph == "X" && ev.Dur < 0 {
			t.Fatalf("negative duration slice: %+v", ev)
		}
	}
	if len(tids) != workers+1 {
		t.Fatalf("%d tracks, want %d (coordinator + one per worker)", len(tids), workers+1)
	}
	ep := p.Profile()
	if names[trace.SpanEngineWindow] != ep.Windows {
		t.Errorf("%d window slices, want %d", names[trace.SpanEngineWindow], ep.Windows)
	}
	if names[trace.SpanEngineShard] != ep.TimelineSlices {
		t.Errorf("%d shard slices, want %d", names[trace.SpanEngineShard], ep.TimelineSlices)
	}
}

// TestSwarmProfiledBitIdentical is the observational-only contract: a
// profiled run (profiler + live recorder attached) must match the bare
// reference bit for bit at every worker count.
func TestSwarmProfiledBitIdentical(t *testing.T) {
	cfg := boundarySwarmConfig(400, 1)
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sw.RunSharded(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		reg := obs.NewRegistry()
		sw.SetRecorder(reg)
		p := NewEngineProfiler(EngineProfilerConfig{Recorder: reg})
		got, err := sw.RunShardedProfiled(workers, p)
		sw.SetRecorder(nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Stats != want.Stats || got.Events != want.Events {
			t.Errorf("workers=%d: profiled run diverged:\n got %s (%d events)\nwant %s (%d events)",
				workers, got.Stats, got.Events, want.Stats, want.Events)
		}
		for i := range want.Trace {
			if got.Trace[i] != want.Trace[i] {
				t.Fatalf("workers=%d: trace[%d] differs under profiling", workers, i)
			}
		}
		ep := p.Profile()
		if int(ep.Events) != got.Events || ep.Windows != got.Windows {
			t.Errorf("workers=%d: profile counted %d events / %d windows, run reports %d / %d",
				workers, ep.Events, ep.Windows, got.Events, got.Windows)
		}
		if ep.Workers != workers || len(ep.PerWorker) != workers {
			t.Errorf("workers=%d: profile has %d worker slots", workers, len(ep.PerWorker))
		}
		if occ := reg.Snapshot().GaugeSeries(MetricEngineWorkerOccupancyLive); len(occ) != workers {
			t.Errorf("workers=%d: %d occupancy series", workers, len(occ))
		}
		for w := 0; w < workers; w++ {
			if ep.PerWorker[w].Worker != w {
				t.Fatalf("worker slot %d labeled %d", w, ep.PerWorker[w].Worker)
			}
		}
	}
}

// TestShardedScheduleSendSteadyStateAllocs pins the disabled-profiler hot
// paths: with no profiler attached, a warm schedule/run cycle and a warm
// cross-shard Send allocate nothing — the profiler costs one nil check.
func TestShardedScheduleSendSteadyStateAllocs(t *testing.T) {
	se, err := NewShardedEngine(ShardedConfig{Shards: 2, Workers: 1, Lookahead: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh := &se.shards[0]
	sc := se.sched[0]
	fn := func(Scheduler) {}
	// Warm the event heap and the outbox to their high-water marks.
	for i := 0; i < 64; i++ {
		if err := sh.schedule(sh.now+float64(1+i%7), fn); err != nil {
			t.Fatal(err)
		}
		if err := sc.Send(1, sh.now+1, fn); err != nil {
			t.Fatal(err)
		}
	}
	sh.runWindow(math.Inf(1))
	sh.outbox = sh.outbox[:0]
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			if err := sh.schedule(sh.now+float64(1+i%7), fn); err != nil {
				t.Fatal(err)
			}
			if err := sc.Send(1, sh.now+1, fn); err != nil {
				t.Fatal(err)
			}
		}
		sh.runWindow(math.Inf(1))
		sh.outbox = sh.outbox[:0]
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/send cycle allocates %.1f times without a profiler, want 0", allocs)
	}
}

// BenchmarkShardedScheduleNoProfiler measures the nil-profiler per-event
// cost of the sharded schedule/run hot path; allocs/op must report 0.
func BenchmarkShardedScheduleNoProfiler(b *testing.B) {
	benchmarkShardedSchedule(b, nil)
}

// BenchmarkShardedScheduleProfiled is the enabled-path companion, for
// eyeballing the profiler's marginal cost (the timeline append amortizes
// to one slice entry per shard-window, not per event).
func BenchmarkShardedScheduleProfiled(b *testing.B) {
	benchmarkShardedSchedule(b, NewEngineProfiler(EngineProfilerConfig{}))
}

func benchmarkShardedSchedule(b *testing.B, p *EngineProfiler) {
	se, err := NewShardedEngine(ShardedConfig{Shards: 1, Workers: 1, Lookahead: 1})
	if err != nil {
		b.Fatal(err)
	}
	se.SetProfiler(p)
	sh := &se.shards[0]
	fn := func(Scheduler) {}
	for i := 0; i < 1024; i++ {
		if err := sh.schedule(sh.now+float64(1+i%31), fn); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sh.now + 1
		if err := sh.schedule(at, fn); err != nil {
			b.Fatal(err)
		}
		sh.runWindow(at + 0.5) // one push, one pop: a warm steady state
	}
	b.StopTimer()
	sh.runWindow(math.Inf(1))
}

// TestSwarmFlightSpans checks satellite wiring of the flight recorder into
// swarm mode: every started round emits one swarm.round span whose end
// attributes tally exactly to the run's merged stats, and recording is
// observational (bit-identical results with the tracer attached).
func TestSwarmFlightSpans(t *testing.T) {
	cfg := boundarySwarmConfig(300, 2)
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sw.RunSharded(1)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{})
	sw.SetFlightRecorder(tr)
	got, err := sw.RunSharded(1)
	sw.SetFlightRecorder(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != ref.Stats || got.Events != ref.Events {
		t.Fatalf("traced run diverged:\n got %s (%d events)\nwant %s (%d events)",
			got.Stats, got.Events, ref.Stats, ref.Events)
	}
	begins := map[uint64]bool{}
	var responses, resolved, collisions int64
	statuses := map[string]int{}
	for _, ev := range tr.Events() {
		switch {
		case ev.Phase == trace.PhaseBegin && ev.Name == trace.SpanSwarmRound:
			begins[ev.Span] = true
			if _, ok := ev.Attrs[trace.AttrNode]; !ok {
				t.Fatalf("swarm.round begin without node attr: %+v", ev)
			}
		case ev.Phase == trace.PhaseEnd && begins[ev.Span]:
			delete(begins, ev.Span)
			status, _ := ev.Attrs[trace.AttrStatus].(string)
			statuses[status]++
			responses += asInt64(ev.Attrs[trace.AttrResponses])
			resolved += asInt64(ev.Attrs[trace.AttrResolved])
			collisions += asInt64(ev.Attrs[trace.AttrCollisions])
		}
	}
	want := int(got.Stats.RoundsStarted)
	if n := statuses["ok"] + statuses["slot-collision"] + statuses["empty"]; n != want {
		t.Fatalf("statuses %v over %d ended spans, want %d rounds started", statuses, n, want)
	}
	if len(begins) != 0 {
		t.Fatalf("%d swarm.round spans never ended", len(begins))
	}
	if responses != got.Stats.Responses || resolved != got.Stats.Resolved || collisions != got.Stats.SlotCollisions {
		t.Fatalf("span tallies responses=%d resolved=%d collisions=%d, stats %s",
			responses, resolved, collisions, got.Stats)
	}
	if st := tr.Stats(); st.RootSpans != uint64(want) {
		t.Fatalf("tracer saw %d roots, want %d", st.RootSpans, want)
	}
}

// TestSwarmFlightSampling: a sampled tracer records every Nth round and
// the sampled-out rounds emit nothing.
func TestSwarmFlightSampling(t *testing.T) {
	sw, err := NewSwarm(boundarySwarmConfig(200, 9))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{SampleEvery: 4})
	sw.SetFlightRecorder(tr)
	res, err := sw.RunSharded(1)
	sw.SetFlightRecorder(nil)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.RootSpans != uint64(res.Stats.RoundsStarted) {
		t.Fatalf("tracer saw %d roots, want %d", st.RootSpans, res.Stats.RoundsStarted)
	}
	sampled := 0
	for _, ev := range tr.Events() {
		if ev.Phase == trace.PhaseBegin && ev.Name == trace.SpanSwarmRound {
			sampled++
		}
	}
	if wantMin := int(res.Stats.RoundsStarted) / 4; sampled < wantMin || sampled >= int(res.Stats.RoundsStarted) {
		t.Fatalf("sampled %d of %d rounds with SampleEvery=4", sampled, res.Stats.RoundsStarted)
	}
}

func asInt64(v any) int64 {
	switch n := v.(type) {
	case int64:
		return n
	case int:
		return int64(n)
	case float64:
		return int64(n)
	}
	return 0
}

// TestEngineProfilerWorkerLabels pins the VecSource pre-resolution: the
// per-worker occupancy gauge children carry the worker-slot label values
// 0..W-1.
func TestEngineProfilerWorkerLabels(t *testing.T) {
	reg := obs.NewRegistry()
	sw, err := NewSwarm(boundarySwarmConfig(200, 4))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	p := NewEngineProfiler(EngineProfilerConfig{Recorder: reg})
	if _, err := sw.RunShardedProfiled(workers, p); err != nil {
		t.Fatal(err)
	}
	occ := reg.Snapshot().GaugeSeries(MetricEngineWorkerOccupancyLive)
	if len(occ) != workers {
		t.Fatalf("%d occupancy series, want %d", len(occ), workers)
	}
	for i, g := range occ {
		if len(g.Labels) != 1 || g.Labels[0].Key != "worker" || g.Labels[0].Value != strconv.Itoa(i) {
			t.Fatalf("occupancy series %d labels = %+v", i, g.Labels)
		}
	}
}
