package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Handler is a sharded simulation event. It receives the Scheduler of the
// shard it runs on, which it uses to read the clock and to schedule
// follow-up work locally or on other shards.
type Handler func(Scheduler)

// Scheduler is the per-shard view a Handler executes against. On the
// ShardedEngine each shard has its own Scheduler running on a worker
// goroutine; the SequentialRunner provides the same interface over the
// single-goroutine engine so one workload can run on either and produce
// bit-identical results.
type Scheduler interface {
	// Now returns the shard's current virtual time in seconds.
	Now() float64
	// Shard returns the index of the shard this handler runs on.
	Shard() int
	// Schedule runs fn on this shard at the given absolute virtual time.
	// Scheduling before Now is rejected.
	Schedule(at float64, fn Handler) error
	// Send runs fn on the destination shard at the given absolute virtual
	// time. On the ShardedEngine a cross-shard send must respect the
	// conservative lookahead: at must be at least the end of the current
	// barrier window. Sends to the handler's own shard are plain Schedules
	// with no lookahead requirement.
	Send(shard int, at float64, fn Handler) error
	// Fail records err as the run's failure; the first failure (lowest
	// shard, earliest call) wins and Run returns it after the current
	// window. Handlers use it to surface errors from inside event code.
	Fail(err error)
}

// Runner drives a Handler workload to completion: seed events onto shards,
// then run until the event queues drain. Implemented by ShardedEngine and
// SequentialRunner.
type Runner interface {
	// Shards returns the number of shards.
	Shards() int
	// Schedule enqueues a seed event on a shard. Valid only before Run.
	Schedule(shard int, at float64, fn Handler) error
	// Run executes events until no queue has work left, and returns the
	// number of events executed and the first failure, if any.
	Run() (int, error)
}

// ShardedConfig configures a ShardedEngine.
type ShardedConfig struct {
	// Shards is the number of spatial shards (event heaps).
	Shards int
	// Workers is the number of worker goroutines executing shard windows.
	// 0 selects GOMAXPROCS. Results are bit-identical at any value.
	Workers int
	// Lookahead is the conservative window length in seconds: a handler
	// executing at time t may affect another shard no earlier than the end
	// of the barrier window containing t, which is at most t + Lookahead
	// away. Must be positive; the workload derives it from its minimum
	// cross-shard decision lead plus the minimum cross-shard flight time.
	Lookahead float64
}

// shard is one spatial partition of a ShardedEngine: its own event heap,
// clock, seq counter and outbox, owned by exactly one worker at a time.
type shard struct {
	eng *ShardedEngine
	id  int

	now      float64
	seq      uint64
	q        eventQueue[Handler]
	outbox   []busMessage
	sendSeq  uint64
	executed int
}

// ShardedEngine runs a spatially sharded discrete-event simulation in
// parallel while producing results bit-identical to the SequentialRunner
// at any worker count. Time advances in conservative barrier windows
// [start, start+Lookahead): within a window every shard executes its own
// events independently (no shard can affect another inside the window,
// because cross-shard sends must target times at or beyond the window
// end); at the barrier the cross-shard bus sorts and injects the emitted
// messages, and the next window starts at the new global minimum event
// time.
type ShardedEngine struct {
	shards    []shard
	sched     []shardScheduler
	workers   int
	lookahead float64

	windowEnd float64 // exclusive upper bound of the window in flight
	windows   int
	running   bool
	active    []*shard // the window's active shards; reused across windows

	mu     sync.Mutex
	err    error
	failed atomic.Bool // mirrors err != nil for lock-free mid-window checks
	bus    bus

	// prof, when non-nil, observes the run (per-window/shard/worker wall
	// timings). Profiling is observational only — results are bit-identical
	// with and without it — and nil costs one pointer check per site.
	prof *EngineProfiler
}

// shardScheduler is the Scheduler handed to handlers on one shard. It is a
// separate tiny struct (not a method set on shard) so the interface value
// is built once at engine construction instead of on every event.
type shardScheduler struct {
	sh *shard
}

// NewShardedEngine builds an engine with the given sharding configuration.
func NewShardedEngine(cfg ShardedConfig) (*ShardedEngine, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("sim: sharded engine needs at least 1 shard, got %d", cfg.Shards)
	}
	if !(cfg.Lookahead > 0) {
		return nil, fmt.Errorf("sim: sharded engine lookahead %g must be positive", cfg.Lookahead)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	se := &ShardedEngine{
		shards:    make([]shard, cfg.Shards),
		sched:     make([]shardScheduler, cfg.Shards),
		workers:   workers,
		lookahead: cfg.Lookahead,
	}
	for i := range se.shards {
		se.shards[i] = shard{eng: se, id: i}
		se.sched[i] = shardScheduler{sh: &se.shards[i]}
	}
	return se, nil
}

// Shards returns the number of shards.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Workers returns the worker pool size.
func (se *ShardedEngine) Workers() int { return se.workers }

// Windows returns the number of barrier windows executed so far.
func (se *ShardedEngine) Windows() int { return se.windows }

// Lookahead returns the conservative window length in seconds.
func (se *ShardedEngine) Lookahead() float64 { return se.lookahead }

// SetProfiler attaches (or, with nil, detaches) an execution profiler.
// Call before Run; attaching resets the profiler for this engine's shape.
func (se *ShardedEngine) SetProfiler(p *EngineProfiler) {
	se.prof = p
	if p != nil {
		p.attach(len(se.shards), se.workers)
	}
}

// Schedule enqueues a seed event on a shard before the run starts.
func (se *ShardedEngine) Schedule(shardID int, at float64, fn Handler) error {
	if se.running {
		return fmt.Errorf("sim: ShardedEngine.Schedule during run; handlers must use their Scheduler")
	}
	if shardID < 0 || shardID >= len(se.shards) {
		return fmt.Errorf("sim: schedule on shard %d of %d", shardID, len(se.shards))
	}
	return se.shards[shardID].schedule(at, fn)
}

// fail records the first failure and stops the run at the next event
// boundary. Which of several concurrent failures is recorded depends on
// worker timing; bit-identical results are guaranteed for successful runs
// only, a failed run just reports one of its errors.
func (se *ShardedEngine) fail(err error) {
	if err == nil {
		return
	}
	se.mu.Lock()
	if se.err == nil {
		se.err = err
	}
	se.mu.Unlock()
	se.failed.Store(true)
}

// runErr returns the first failure recorded by fail, if any. Run reads it
// between barrier windows, after the worker pool has joined, but the
// happens-before edge still comes from se.mu, not the join.
func (se *ShardedEngine) runErr() error {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.err
}

// Run executes barrier windows until every shard's queue is empty or a
// failure is recorded. It returns the total number of events executed and
// the failure, if any.
func (se *ShardedEngine) Run() (int, error) {
	se.running = true
	defer func() { se.running = false }()
	for se.runErr() == nil {
		// Window start: the global minimum pending event time.
		start := math.Inf(1)
		for i := range se.shards {
			if q := &se.shards[i].q; q.Len() > 0 && q.peekAt() < start {
				start = q.peekAt()
			}
		}
		if math.IsInf(start, 1) {
			break
		}
		end := start + se.lookahead
		se.windowEnd = end
		if se.prof != nil {
			se.prof.beginWindow(se.windows, start, end)
		}
		se.runWindow(end)
		se.windows++
		if se.prof != nil {
			se.prof.execDone()
		}
		// Barrier: collect outboxes in shard order and inject the window's
		// cross-shard messages in (time, src, seq) order.
		drained := 0
		for i := range se.shards {
			if se.prof != nil {
				se.prof.shardOutbox(i, len(se.shards[i].outbox))
			}
			drained += len(se.shards[i].outbox)
			se.bus.collect(&se.shards[i].outbox)
		}
		se.bus.drain(func(m busMessage) {
			if err := se.shards[m.dst].schedule(m.at, m.fn); err != nil {
				se.fail(err)
			}
		})
		if se.prof != nil {
			se.prof.endWindow(drained)
		}
	}
	total := 0
	for i := range se.shards {
		total += se.shards[i].executed
	}
	return total, se.runErr()
}

// runWindow executes every active shard's events in [its current head,
// end) across the worker pool. Shards are claimed via an atomic cursor;
// which worker runs which shard is scheduling noise — each shard's events
// run single-threaded in (time, seq) order, and nothing a shard does in
// this window is visible to another shard before the barrier.
func (se *ShardedEngine) runWindow(end float64) {
	se.active = se.active[:0]
	for i := range se.shards {
		if q := &se.shards[i].q; q.Len() > 0 && q.peekAt() < end {
			se.active = append(se.active, &se.shards[i])
		}
	}
	// Never reassigned, so the worker closures capture it by value and it
	// does not move to the heap every window.
	active := se.active
	workers := se.workers
	if workers > len(active) {
		workers = len(active)
	}
	prof := se.prof
	if prof != nil {
		prof.windowWorkers(len(active), workers)
	}
	if workers <= 1 {
		for _, sh := range active {
			if prof != nil {
				prof.runShard(0, sh, end)
			} else {
				sh.runWindow(end)
			}
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(active) {
					return
				}
				if prof != nil {
					prof.runShard(w, active[i], end)
				} else {
					active[i].runWindow(end)
				}
			}
		}(w)
	}
	wg.Wait()
}

// schedule pushes an event onto the shard heap with the shard-local seq as
// the tie-breaker.
func (sh *shard) schedule(at float64, fn Handler) error {
	if at < sh.now {
		return fmt.Errorf("sim: schedule at %g before now %g", at, sh.now)
	}
	if fn == nil {
		return fmt.Errorf("sim: nil event function")
	}
	sh.seq++
	sh.q.push(event[Handler]{at: at, seq: sh.seq, fn: fn})
	if p := sh.eng.prof; p != nil {
		if n := sh.q.Len(); n > p.shards[sh.id].heapHW {
			p.shards[sh.id].heapHW = n
		}
	}
	return nil
}

// runWindow executes the shard's events strictly before end. A handler
// panic is converted into a run failure so one bad event does not tear
// down the process from a worker goroutine.
func (sh *shard) runWindow(end float64) {
	defer func() {
		if r := recover(); r != nil {
			sh.eng.fail(fmt.Errorf("sim: shard %d event panic: %v", sh.id, r))
		}
	}()
	sc := sh.eng.sched[sh.id]
	for sh.q.Len() > 0 && sh.q.peekAt() < end {
		ev := sh.q.pop()
		sh.now = ev.at
		ev.fn(sc)
		sh.executed++
		if sh.eng.failed.Load() {
			return
		}
	}
}

// Now returns the shard's current virtual time.
func (s shardScheduler) Now() float64 { return s.sh.now }

// Shard returns the shard index.
func (s shardScheduler) Shard() int { return s.sh.id }

// Schedule runs fn on this shard at the given absolute virtual time.
func (s shardScheduler) Schedule(at float64, fn Handler) error {
	return s.sh.schedule(at, fn)
}

// Send delivers fn to another shard through the bus. The conservative
// contract is enforced here: the delivery time must not precede the end
// of the barrier window in flight, or the destination shard could already
// have advanced past it.
func (s shardScheduler) Send(shardID int, at float64, fn Handler) error {
	sh := s.sh
	if shardID == sh.id {
		return sh.schedule(at, fn)
	}
	eng := sh.eng
	if shardID < 0 || shardID >= len(eng.shards) {
		return fmt.Errorf("sim: send to shard %d of %d", shardID, len(eng.shards))
	}
	if fn == nil {
		return fmt.Errorf("sim: nil event function")
	}
	if at < eng.windowEnd {
		return fmt.Errorf("sim: cross-shard send at %g violates lookahead window end %g (lookahead %g)",
			at, eng.windowEnd, eng.lookahead)
	}
	sh.sendSeq++
	sh.outbox = append(sh.outbox, busMessage{
		at: at, src: int32(sh.id), seq: sh.sendSeq, dst: int32(shardID), fn: fn,
	})
	return nil
}

// Fail records err as the run's failure.
func (s shardScheduler) Fail(err error) { s.sh.eng.fail(err) }

// SequentialRunner runs a sharded Handler workload on the single-goroutine
// engine: one global (time, seq) heap, shards existing only as labels on
// the Scheduler contexts. It is the test reference the ShardedEngine is
// checked against bit for bit; no production code runs it.
type SequentialRunner struct {
	eng    engine
	ctx    []seqScheduler
	shards int
	err    error
}

// seqScheduler adapts the sequential engine to the Scheduler interface for
// one shard label.
type seqScheduler struct {
	r  *SequentialRunner
	id int
}

// NewSequentialRunner builds a sequential runner with the given number of
// shard labels, the reference the sharded engine's tests compare against.
func NewSequentialRunner(shards int) (*SequentialRunner, error) {
	if shards < 1 {
		return nil, fmt.Errorf("sim: sequential runner needs at least 1 shard, got %d", shards)
	}
	r := &SequentialRunner{ctx: make([]seqScheduler, shards), shards: shards}
	for i := range r.ctx {
		r.ctx[i] = seqScheduler{r: r, id: i}
	}
	return r, nil
}

// Shards returns the number of shard labels.
func (r *SequentialRunner) Shards() int { return r.shards }

// Schedule enqueues a seed event on a shard label.
func (r *SequentialRunner) Schedule(shardID int, at float64, fn Handler) error {
	if shardID < 0 || shardID >= r.shards {
		return fmt.Errorf("sim: schedule on shard %d of %d", shardID, r.shards)
	}
	if fn == nil {
		return fmt.Errorf("sim: nil event function")
	}
	ctx := r.ctx[shardID]
	return r.eng.Schedule(at, func() { fn(ctx) })
}

// Run executes all events in global time order and returns the count and
// the first recorded failure.
func (r *SequentialRunner) Run() (int, error) {
	n := 0
	for r.err == nil && r.eng.Pending() > 0 {
		n += r.eng.RunUntil(r.eng.q.peekAt())
	}
	return n, r.err
}

// Now returns the global virtual time.
func (s seqScheduler) Now() float64 { return s.r.eng.Now() }

// Shard returns the shard label.
func (s seqScheduler) Shard() int { return s.id }

// Schedule runs fn on this shard label at the given absolute time.
func (s seqScheduler) Schedule(at float64, fn Handler) error {
	return s.r.Schedule(s.id, at, fn)
}

// Send runs fn on another shard label; sequentially this is an ordinary
// Schedule, with no lookahead constraint to enforce.
func (s seqScheduler) Send(shardID int, at float64, fn Handler) error {
	return s.r.Schedule(shardID, at, fn)
}

// Fail records err as the run's failure; the first call wins.
func (s seqScheduler) Fail(err error) {
	if err != nil && s.r.err == nil {
		s.r.err = err
	}
}
