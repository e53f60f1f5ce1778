package sim

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
)

// This file is the sharded engine's execution profiler: per-window,
// per-shard, per-worker wall-clock accounting (events executed, heap-depth
// high water, barrier waits, bus drains, worker occupancy) aggregated into
// a scaling diagnosis — where does a window's wall time go, which shard is
// the critical path, how far from ideal is the worker pool — and
// exportable as a Chrome trace timeline through the obs/trace exporter.
//
// The contract matches the Recorder/Tracer discipline exactly:
//
//   - A nil *EngineProfiler means "disabled". The engine pays one pointer
//     check per recording site and allocates nothing.
//   - Profiling is observational only: simulation results are bit-identical
//     with and without a profiler attached (the profiler wraps shard-window
//     execution but never reorders, skips, or times out anything).
//   - Everything the profiler measures is wall-clock-derived, so every
//     metric it records uses the _seconds / _live wall-time-class suffixes
//     and every report field it feeds is zeroed by obs.StripWallTime.

// Metric names the engine profiler records through a Recorder. All of them
// are wall-time-class (the _seconds / _live suffixes): which worker runs
// which shard is scheduling noise, so none of these may survive
// StripWallTime.
const (
	// MetricEngineWindowsLive is the barrier-window count so far (gauge).
	MetricEngineWindowsLive = "sim.engine_windows" + obs.LiveMetricSuffix
	// MetricEngineBusLive is the cross-shard bus messages drained so far
	// (gauge).
	MetricEngineBusLive = "sim.engine_bus_messages" + obs.LiveMetricSuffix
	// MetricEngineEfficiencyLive is the running parallel efficiency in
	// [0, 1]: shard busy time over worker-pool capacity (gauge).
	MetricEngineEfficiencyLive = "sim.engine_parallel_efficiency" + obs.LiveMetricSuffix
	// MetricEngineWorkerOccupancyLive is the per-worker occupancy in
	// percent of the window-execution wall time (gauge vec, labeled by
	// worker slot).
	MetricEngineWorkerOccupancyLive = "sim.engine_worker_occupancy" + obs.LiveMetricSuffix
)

// DefaultTimelineCap bounds the per-run Chrome-timeline slice count. Each
// slice is one shard-window execution (~40 bytes); the default admits the
// full 10k-node swarm timeline while keeping a runaway 100k-node run's
// profiler memory bounded. Aggregate counters keep accumulating after the
// cap; only timeline detail is dropped (and counted).
const DefaultTimelineCap = 1 << 20

// EngineProfilerConfig parameterizes an EngineProfiler.
type EngineProfilerConfig struct {
	// Clock overrides the wall-clock source with a function returning
	// seconds; nil uses monotonic time since NewEngineProfiler. Tests use
	// it to pin timings.
	Clock func() float64
	// Recorder, when non-nil, receives the live sim.engine_* metrics (one
	// coordinator-side update per barrier window; per-worker series are
	// pre-resolved child handles, never per-event map lookups).
	Recorder obs.Recorder
	// TimelineCap bounds the timeline slice count; 0 selects
	// DefaultTimelineCap, negative disables the timeline entirely
	// (aggregates still accumulate).
	TimelineCap int
}

// profShard is one shard's accumulator. Within a window it is written only
// by the worker that claimed the shard; between windows only by the
// coordinator — the same ownership discipline as the shard itself.
type profShard struct {
	events  int64
	busy    float64
	windows int64
	heapHW  int
	busMsgs int64
}

// profWorker is one worker slot's accumulator, written only by that slot.
type profWorker struct {
	slices int64
	busy   float64
}

// timelineSlice is one shard-window execution, for the Chrome timeline.
type timelineSlice struct {
	start, end float64
	window     int32
	shard      int32
	events     int32
}

// windowRecord is one barrier window's coordinator-side timing.
type windowRecord struct {
	vStart, vEnd                 float64
	wallStart, execEnd, drainEnd float64
	index                        int32
	active                       int32
	workers                      int32
	busMsgs                      int32
}

// EngineProfiler collects execution timings from one ShardedEngine run.
// Attach with ShardedEngine.SetProfiler (or Swarm.RunShardedProfiled)
// before Run; read the aggregate with Profile and the timeline with
// WriteChromeTrace afterwards. A profiler is single-run state: attaching
// resets it.
type EngineProfiler struct {
	clock func() float64

	shards  []profShard
	workers []profWorker
	slices  [][]timelineSlice // per worker slot, lock-free appends
	windows []windowRecord

	timeLeft    atomic.Int64 // remaining timeline slice budget
	timelineCap int

	// Current-window scratch, coordinator-owned; workers read curIndex
	// through the happens-before edge of their window's goroutine start.
	curIndex           int
	curVStart, curVEnd float64
	curWallStart       float64
	curExecEnd         float64
	curActive          int
	curWorkers         int

	totalExec   float64 // Σ window execution spans
	totalWorker float64 // Σ effective-workers × execution span
	totalDrain  float64 // Σ barrier drain spans
	totalBus    int64
	nWindows    int

	// Live metric mirror: unlabeled gauges go through rec directly (one
	// call per window); per-worker series are pre-resolved child handles
	// (the VecSource idiom), so recording never does a label-tuple lookup.
	rec  obs.Recorder
	gOcc []*obs.Gauge
}

// NewEngineProfiler builds a profiler. See EngineProfilerConfig.
func NewEngineProfiler(cfg EngineProfilerConfig) *EngineProfiler {
	p := &EngineProfiler{clock: cfg.Clock, rec: cfg.Recorder, timelineCap: cfg.TimelineCap}
	if p.clock == nil {
		p.clock = profilerWallClock()
	}
	if p.timelineCap == 0 {
		p.timelineCap = DefaultTimelineCap
	}
	if p.timelineCap < 0 {
		p.timelineCap = 0
	}
	return p
}

// profilerWallClock returns the profiler's sanctioned monotonic wall-clock
// reader. Every duration derived from it flows into _seconds / _live
// metrics or wall-time-class report fields, all of which StripWallTime
// removes, so profiler wall time never reaches a determinism-checked
// output.
func profilerWallClock() func() float64 {
	start := time.Now() //lint:allow detrand profiler wall time feeds only StripWallTime-stripped outputs
	return func() float64 {
		return time.Since(start).Seconds() //lint:allow detrand profiler wall time feeds only StripWallTime-stripped outputs
	}
}

// attach sizes and resets the per-run state. Called by SetProfiler.
func (p *EngineProfiler) attach(shards, workers int) {
	p.shards = make([]profShard, shards)
	p.workers = make([]profWorker, workers)
	p.slices = make([][]timelineSlice, workers)
	p.windows = p.windows[:0]
	p.timeLeft.Store(int64(p.timelineCap))
	p.totalExec, p.totalWorker, p.totalDrain = 0, 0, 0
	p.totalBus, p.nWindows = 0, 0
	p.gOcc = nil
	if vs, ok := p.rec.(obs.VecSource); ok {
		occVec := vs.GaugeVec(MetricEngineWorkerOccupancyLive, "worker")
		p.gOcc = make([]*obs.Gauge, workers)
		for w := 0; w < workers; w++ {
			p.gOcc[w] = occVec.With(strconv.Itoa(w))
		}
	}
}

// beginWindow opens a barrier window. Coordinator only.
func (p *EngineProfiler) beginWindow(index int, vStart, vEnd float64) {
	p.curIndex = index
	p.curVStart, p.curVEnd = vStart, vEnd
	p.curWallStart = p.clock()
	p.curActive, p.curWorkers = 0, 0
}

// windowWorkers records the window's active-shard and effective worker
// counts. Coordinator only, before the worker pool starts.
func (p *EngineProfiler) windowWorkers(active, workers int) {
	if workers < 1 {
		workers = 1
	}
	p.curActive, p.curWorkers = active, workers
}

// runShard executes one shard's window under the profiler's clock,
// attributing the span to the claiming worker slot. It is the only
// profiler entry point on the worker side; everything it touches is owned
// by the shard or the worker slot, so no locking is needed.
func (p *EngineProfiler) runShard(worker int, sh *shard, end float64) {
	t0 := p.clock()
	before := sh.executed
	sh.runWindow(end)
	t1 := p.clock()
	span := t1 - t0
	ps := &p.shards[sh.id] //lint:allow shardsafe the worker owns sh for this window via the atomic-cursor claim, so sh.id is the owning index here
	ps.events += int64(sh.executed - before)
	ps.busy += span
	ps.windows++
	pw := &p.workers[worker]
	pw.slices++
	pw.busy += span
	if p.timeLeft.Add(-1) >= 0 {
		p.slices[worker] = append(p.slices[worker], timelineSlice{
			start: t0, end: t1,
			window: int32(p.curIndex), shard: int32(sh.id),
			events: int32(sh.executed - before),
		})
	}
}

// execDone closes the window's execution phase. Coordinator only, after
// the worker pool has joined.
func (p *EngineProfiler) execDone() {
	p.curExecEnd = p.clock()
	span := p.curExecEnd - p.curWallStart
	p.totalExec += span
	p.totalWorker += float64(p.curWorkers) * span
}

// shardOutbox attributes a window's outgoing bus messages to their source
// shard. Coordinator only, at the barrier before the bus collects.
func (p *EngineProfiler) shardOutbox(shard, n int) {
	p.shards[shard].busMsgs += int64(n)
}

// endWindow closes the window after the bus drain and mirrors the live
// metrics. Coordinator only.
func (p *EngineProfiler) endWindow(busMsgs int) {
	drainEnd := p.clock()
	p.totalDrain += drainEnd - p.curExecEnd
	p.totalBus += int64(busMsgs)
	p.nWindows++
	if p.timelineCap > 0 && len(p.windows) < p.timelineCap {
		p.windows = append(p.windows, windowRecord{
			vStart: p.curVStart, vEnd: p.curVEnd,
			wallStart: p.curWallStart, execEnd: p.curExecEnd, drainEnd: drainEnd,
			index:  int32(p.curIndex),
			active: int32(p.curActive), workers: int32(p.curWorkers),
			busMsgs: int32(busMsgs),
		})
	}
	if p.rec != nil {
		p.rec.SetGauge(MetricEngineWindowsLive, float64(p.nWindows))
		p.rec.SetGauge(MetricEngineBusLive, float64(p.totalBus))
		var busy float64
		for w := range p.workers {
			busy += p.workers[w].busy
		}
		if p.totalWorker > 0 {
			p.rec.SetGauge(MetricEngineEfficiencyLive, busy/p.totalWorker)
		}
		if p.gOcc != nil && p.totalExec > 0 {
			for w := range p.workers {
				p.gOcc[w].Set(100 * p.workers[w].busy / p.totalExec)
			}
		}
	}
}

// EngineShardProfile is one shard's aggregate.
type EngineShardProfile struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Events counts the events the shard executed.
	Events int64 `json:"events"`
	// BusySeconds is the shard's summed window-execution wall time.
	BusySeconds float64 `json:"busy_seconds"`
	// Windows counts the windows in which the shard had work.
	Windows int64 `json:"windows"`
	// HeapHighWater is the deepest event heap observed.
	HeapHighWater int `json:"heap_high_water"`
	// BusMessages counts cross-shard messages the shard emitted.
	BusMessages int64 `json:"bus_messages"`
}

// EngineWorkerProfile is one worker slot's aggregate.
type EngineWorkerProfile struct {
	// Worker is the pool slot index.
	Worker int `json:"worker"`
	// ShardWindows counts the shard-window executions the slot claimed.
	ShardWindows int64 `json:"shard_windows"`
	// BusySeconds is the slot's summed execution wall time.
	BusySeconds float64 `json:"busy_seconds"`
	// OccupancyPct is BusySeconds over the total window-execution span,
	// in percent.
	OccupancyPct float64 `json:"occupancy_pct"`
}

// EngineProfile is the aggregated scaling diagnosis of one run.
type EngineProfile struct {
	// Shards, Workers, and Windows describe the profiled engine.
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
	Windows int `json:"windows"`
	// Events is the total executed; BusMessages the total drained.
	Events      int64 `json:"events"`
	BusMessages int64 `json:"bus_messages"`
	// ExecSeconds is the summed window-execution wall time, DrainSeconds
	// the summed barrier-drain wall time, WorkerSeconds the worker-pool
	// capacity (Σ effective workers × window span), BusySeconds the part
	// of that capacity spent executing shards, and BarrierWaitSeconds the
	// part spent waiting at barriers (capacity − busy).
	ExecSeconds        float64 `json:"exec_seconds"`
	DrainSeconds       float64 `json:"drain_seconds"`
	WorkerSeconds      float64 `json:"worker_seconds"`
	BusySeconds        float64 `json:"busy_seconds"`
	BarrierWaitSeconds float64 `json:"barrier_wait_seconds"`
	// ParallelEfficiency is BusySeconds / WorkerSeconds in [0, 1]: 1 means
	// every worker executed shards for every window's full span.
	ParallelEfficiency float64 `json:"parallel_efficiency"`
	// BarrierStallPct is the barrier-wait share of the pool capacity and
	// DrainPct the bus-drain share of the total engine wall time, both in
	// percent — together the stall breakdown.
	BarrierStallPct float64 `json:"barrier_stall_pct"`
	DrainPct        float64 `json:"drain_pct"`
	// CriticalShard is the busiest shard (the window critical path) and
	// CriticalShardShare its share of the total busy time in [0, 1].
	CriticalShard      int     `json:"critical_shard"`
	CriticalShardShare float64 `json:"critical_shard_share"`
	// TimelineSlices counts the shard-window slices kept for the Chrome
	// timeline; TimelineDropped the ones beyond the cap.
	TimelineSlices  int   `json:"timeline_slices"`
	TimelineDropped int64 `json:"timeline_dropped"`
	// PerShard and PerWorker are the per-shard / per-worker aggregates.
	PerShard  []EngineShardProfile  `json:"per_shard"`
	PerWorker []EngineWorkerProfile `json:"per_worker"`
}

// Profile aggregates the collected timings. Call after Run has returned.
func (p *EngineProfiler) Profile() *EngineProfile {
	out := &EngineProfile{
		Shards:        len(p.shards),
		Workers:       len(p.workers),
		Windows:       p.nWindows,
		BusMessages:   p.totalBus,
		ExecSeconds:   p.totalExec,
		DrainSeconds:  p.totalDrain,
		WorkerSeconds: p.totalWorker,
		CriticalShard: -1,
	}
	var maxBusy float64
	for i := range p.shards {
		s := &p.shards[i]
		out.Events += s.events
		out.BusySeconds += s.busy
		if s.windows == 0 && s.events == 0 && s.busMsgs == 0 {
			continue
		}
		out.PerShard = append(out.PerShard, EngineShardProfile{
			Shard: i, Events: s.events, BusySeconds: s.busy,
			Windows: s.windows, HeapHighWater: s.heapHW, BusMessages: s.busMsgs,
		})
		if s.busy > maxBusy {
			maxBusy, out.CriticalShard = s.busy, i
		}
	}
	if out.BusySeconds > 0 && out.CriticalShard >= 0 {
		out.CriticalShardShare = maxBusy / out.BusySeconds
	}
	for w := range p.workers {
		wp := EngineWorkerProfile{
			Worker: w, ShardWindows: p.workers[w].slices, BusySeconds: p.workers[w].busy,
		}
		if p.totalExec > 0 {
			wp.OccupancyPct = 100 * wp.BusySeconds / p.totalExec
		}
		out.PerWorker = append(out.PerWorker, wp)
		out.TimelineSlices += len(p.slices[w])
	}
	if p.totalWorker > 0 {
		out.ParallelEfficiency = out.BusySeconds / p.totalWorker
		out.BarrierWaitSeconds = p.totalWorker - out.BusySeconds
		if out.BarrierWaitSeconds < 0 {
			out.BarrierWaitSeconds = 0
		}
		out.BarrierStallPct = 100 * out.BarrierWaitSeconds / p.totalWorker
	}
	if wall := p.totalExec + p.totalDrain; wall > 0 {
		out.DrainPct = 100 * p.totalDrain / wall
	}
	if left := p.timeLeft.Load(); left < 0 {
		out.TimelineDropped = -left
	}
	return out
}

// String renders a one-screen diagnosis summary.
func (ep *EngineProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine profile: %d shards, %d workers, %d windows, %d events, %d bus messages\n",
		ep.Shards, ep.Workers, ep.Windows, ep.Events, ep.BusMessages)
	fmt.Fprintf(&b, "  parallel efficiency %.1f%%  barrier stall %.1f%%  bus drain %.1f%% of wall\n",
		100*ep.ParallelEfficiency, ep.BarrierStallPct, ep.DrainPct)
	if ep.CriticalShard >= 0 {
		fmt.Fprintf(&b, "  critical shard %d carries %.1f%% of busy time\n",
			ep.CriticalShard, 100*ep.CriticalShardShare)
	}
	for _, w := range ep.PerWorker {
		fmt.Fprintf(&b, "  worker %d: %d shard-windows, busy %.3fs (%.1f%% occupancy)\n",
			w.Worker, w.ShardWindows, w.BusySeconds, w.OccupancyPct)
	}
	if ep.TimelineDropped > 0 {
		fmt.Fprintf(&b, "  timeline: %d slices kept, %d dropped beyond cap\n",
			ep.TimelineSlices, ep.TimelineDropped)
	}
	return b.String()
}

// WriteChromeTrace exports the collected timeline in the Chrome
// trace-event format by synthesizing a flight-recorder event stream and
// reusing the obs/trace exporter: one track per worker slot (shard-window
// slices), plus one coordinator track (barrier-window slices carrying the
// drain accounting). Load the file in chrome://tracing or Perfetto.
func (p *EngineProfiler) WriteChromeTrace(w io.Writer) error {
	var events []trace.Event
	var seq uint64
	emit := func(ev trace.Event) {
		seq++
		ev.Seq = seq
		events = append(events, ev)
	}
	// Span IDs: 1 is the coordinator root, 2..workers+1 the worker roots,
	// the rest sequential. WriteChromeTrace groups spans onto tracks by
	// root span, so every worker gets exactly one track.
	nextSpan := uint64(len(p.workers) + 2)
	t0, t1 := 0.0, 0.0
	if len(p.windows) > 0 {
		t0 = p.windows[0].wallStart
		t1 = p.windows[len(p.windows)-1].drainEnd
	}
	emit(trace.Event{Span: 1, Phase: trace.PhaseBegin, Name: trace.SpanEngineCoordinator, TS: t0,
		Attrs: trace.Attrs{"shards": len(p.shards), "workers": len(p.workers), "windows": p.nWindows}})
	for w := range p.workers {
		emit(trace.Event{Span: uint64(w + 2), Phase: trace.PhaseBegin, Name: trace.SpanEngineWorker, TS: t0,
			Attrs: trace.Attrs{trace.AttrWorker: w}})
	}
	for _, win := range p.windows {
		id := nextSpan
		nextSpan++
		emit(trace.Event{Span: id, Parent: 1, Phase: trace.PhaseBegin, Name: trace.SpanEngineWindow,
			TS: win.wallStart, Attrs: trace.Attrs{
				trace.AttrWindow: int(win.index), "active_shards": int(win.active),
				"workers": int(win.workers), "bus_messages": int(win.busMsgs),
				"virtual_start_s": win.vStart, "virtual_end_s": win.vEnd,
				"drain_s": win.drainEnd - win.execEnd,
			}})
		emit(trace.Event{Span: id, Phase: trace.PhaseEnd, TS: win.drainEnd})
	}
	for w := range p.slices {
		parent := uint64(w + 2)
		for _, sl := range p.slices[w] {
			id := nextSpan
			nextSpan++
			emit(trace.Event{Span: id, Parent: parent, Phase: trace.PhaseBegin, Name: trace.SpanEngineShard,
				TS: sl.start, Attrs: trace.Attrs{
					trace.AttrShard: int(sl.shard), trace.AttrWindow: int(sl.window),
					"events": int(sl.events),
				}})
			emit(trace.Event{Span: id, Phase: trace.PhaseEnd, TS: sl.end})
		}
	}
	emit(trace.Event{Span: 1, Phase: trace.PhaseEnd, TS: t1})
	for w := range p.workers {
		emit(trace.Event{Span: uint64(w + 2), Phase: trace.PhaseEnd, TS: t1})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return trace.WriteChromeTrace(w, events)
}
