package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"github.com/uwb-sim/concurrent-ranging/internal/airtime"
	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
)

// Metric names the swarm simulation records through a Recorder.
const (
	// MetricSwarmEvents counts discrete events executed by a swarm run.
	MetricSwarmEvents = "sim.swarm_events"
	// MetricSwarmRounds counts completed concurrent-ranging rounds.
	MetricSwarmRounds = "sim.swarm_rounds"
	// MetricSwarmFrames counts frames on the air (INIT + RESP).
	MetricSwarmFrames = "sim.swarm_frames"
	// MetricSwarmCrossShard counts receptions whose transmitter lives on a
	// different shard than the receiver — the traffic that crosses the bus.
	MetricSwarmCrossShard = "sim.swarm_cross_shard_frames"
	// MetricSwarmResponsesByOutcome is the labeled response tally:
	// {outcome="resolved"}, {outcome="slot_collision"}, {outcome="busy"}.
	// Recorded only when the Recorder supports labeled series.
	MetricSwarmResponsesByOutcome = "sim.swarm_responses_by_outcome"
	// MetricSwarmRoundsLive is the live in-run mirror of the completed
	// round tally, recorded per round through a handle SetRecorder
	// resolves once. It feeds crtop's Engine panel while a swarm runs;
	// being wall-time-class (_live), StripWallTime drops it and the
	// post-run Record tallies stay the determinism-checked truth.
	MetricSwarmRoundsLive = "sim.swarm_rounds" + obs.LiveMetricSuffix
)

// ErrInvalidSwarmConfig reports a SwarmConfig that NewSwarm rejects: a
// field that is not finite or out of its domain (a response delay below
// the Sect. III minimum, a decision lead below one delayed-TX granule, a
// negative roam radius or pause), a slot plan that does not validate, a
// round period shorter than one round, a shard grid with more cells than
// nodes, or a waypoint walk too fine to build. The cause stays in the
// error chain. Match it with errors.Is.
var ErrInvalidSwarmConfig = errors.New("sim: invalid swarm config")

// SwarmConfig describes a city-scale concurrent-ranging swarm: N nodes
// uniformly deployed at a given density, every InitiatorEvery-th node
// periodically running the paper's concurrent ranging round against the
// responders in radio range, with response position modulation assigning
// slots and pulse shapes by responder ID (Sect. VIII).
type SwarmConfig struct {
	// N is the total number of nodes. Must be positive.
	N int
	// InitiatorEvery makes every k-th node an initiator (default 10).
	InitiatorEvery int
	// Density is the deployment density in nodes/m² (default 0.004,
	// roughly one node per 16×16 m city block).
	Density float64
	// Range is the radio range in meters (default 30).
	Range float64
	// RoundPeriod is the per-initiator ranging period in seconds
	// (default 50 ms). It must cover one round: DecisionLead, then the
	// response window the initiator keeps open after its INIT.
	RoundPeriod float64
	// Duration is the simulated horizon in seconds (default 200 ms).
	Duration float64
	// ResponseDelay is Δ_RESP (default airtime.DefaultResponseDelay), at
	// least the Sect. III minimum airtime.MinResponseDelay.
	ResponseDelay float64
	// DecisionLead is how far ahead of its INIT transmission an initiator
	// commits to the round (default 100 µs, at least one delayed-TX
	// granule). Together with ResponseDelay it bounds the conservative
	// lookahead: every cross-shard message is emitted at least
	// min(DecisionLead, ResponseDelay−TX granularity) before its delivery
	// time.
	DecisionLead float64
	// Plan is the slot/shape plan; the zero value selects
	// core.NewSafeSlotPlan(Range, 4).
	Plan core.SlotPlan
	// Mobility configures the per-node waypoint walks; the zero value
	// selects 10 m roam at 0.5–1.5 m/s.
	Mobility MobilityConfig
	// NoMobility pins all nodes to their homes (overrides Mobility).
	NoMobility bool
	// CellSize is the shard grid cell in meters; 0 derives a cell that
	// keeps most traffic shard-local (≥ 2·(Range+2·RoamRadius)). The grid
	// may have at most N cells.
	CellSize float64
	// Seed drives every random draw.
	Seed uint64
	// RecordTrace keeps the canonical event trace (for tests; costs
	// memory proportional to the event count).
	RecordTrace bool
}

// withDefaults returns the config with zero fields replaced by defaults.
// Every float must be finite: a NaN density or an infinite horizon would
// otherwise hang the run, and an infinite density stacks all nodes on one
// point. Every rejection wraps ErrInvalidSwarmConfig.
func (c SwarmConfig) withDefaults() (SwarmConfig, error) {
	if c.N < 1 {
		return c, fmt.Errorf("%w: needs at least 1 node, got %d", ErrInvalidSwarmConfig, c.N)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Density", c.Density}, {"Range", c.Range}, {"RoundPeriod", c.RoundPeriod},
		{"Duration", c.Duration}, {"ResponseDelay", c.ResponseDelay},
		{"DecisionLead", c.DecisionLead}, {"CellSize", c.CellSize},
		{"Plan.SlotWidth", c.Plan.SlotWidth},
		{"Mobility.RoamRadius", c.Mobility.RoamRadius}, {"Mobility.MinSpeed", c.Mobility.MinSpeed},
		{"Mobility.MaxSpeed", c.Mobility.MaxSpeed}, {"Mobility.Pause", c.Mobility.Pause},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return c, fmt.Errorf("%w: %s %g is not finite", ErrInvalidSwarmConfig, f.name, f.v)
		}
	}
	if c.InitiatorEvery <= 0 {
		c.InitiatorEvery = 10
	}
	if c.Density <= 0 {
		c.Density = 0.004
	}
	if c.Range <= 0 {
		c.Range = 30
	}
	if c.RoundPeriod <= 0 {
		c.RoundPeriod = 50e-3
	}
	if c.Duration <= 0 {
		c.Duration = 200e-3
	}
	if c.ResponseDelay <= 0 {
		c.ResponseDelay = airtime.DefaultResponseDelay
	}
	if c.DecisionLead <= 0 {
		c.DecisionLead = 100e-6
	}
	// A responder cannot answer before the INIT frame has ended (Sect. III),
	// the same floor RunConcurrentRound enforces.
	minDelay, err := airtime.MinResponseDelay(airtime.PaperConfig(), airtime.InitPayloadBytes)
	if err != nil {
		return c, fmt.Errorf("%w: %w", ErrInvalidSwarmConfig, err)
	}
	if c.ResponseDelay < minDelay {
		return c, fmt.Errorf("%w: response delay %g s below the %g s minimum (Sect. III)",
			ErrInvalidSwarmConfig, c.ResponseDelay, minDelay)
	}
	// The decision lead funds the engine's lookahead; below one delayed-TX
	// granule it would not advance the barrier windows.
	if c.DecisionLead < dw1000.DelayedTXGranularity {
		return c, fmt.Errorf("%w: decision lead %g s below the %g s TX granularity",
			ErrInvalidSwarmConfig, c.DecisionLead, dw1000.DelayedTXGranularity)
	}
	if c.Plan == (core.SlotPlan{}) {
		plan, err := core.NewSafeSlotPlan(c.Range, 4)
		if err != nil {
			return c, fmt.Errorf("%w: %w", ErrInvalidSwarmConfig, err)
		}
		c.Plan = plan
	}
	if err := c.Plan.Validate(); err != nil {
		return c, fmt.Errorf("%w: %w", ErrInvalidSwarmConfig, err)
	}
	if c.NoMobility {
		c.Mobility = MobilityConfig{}
	} else if c.Mobility == (MobilityConfig{}) {
		c.Mobility = MobilityConfig{RoamRadius: 10, MinSpeed: 0.5, MaxSpeed: 1.5}
	}
	// A negative roam radius would shrink the reach the lookahead and the
	// candidate lists are derived from below the distance nodes really move.
	if c.Mobility.RoamRadius < 0 || c.Mobility.Pause < 0 {
		return c, fmt.Errorf("%w: roam radius %g m and pause %g s must not be negative",
			ErrInvalidSwarmConfig, c.Mobility.RoamRadius, c.Mobility.Pause)
	}
	if c.CellSize <= 0 {
		c.CellSize = 2 * (c.Range + 2*c.Mobility.RoamRadius)
	}
	return c, nil
}

// SwarmStats is the per-run (or per-shard) event tally of a swarm
// simulation. All fields are plain integers/floats: each shard owns one
// accumulator and the engine merges them in shard order, so sums — float
// sums included — are bit-identical at any worker count.
type SwarmStats struct {
	// RoundsStarted / RoundsCompleted / EmptyRounds count initiator
	// rounds: started (INIT committed), completed (response window
	// closed), and started with no responder in range.
	RoundsStarted, RoundsCompleted, EmptyRounds int64
	// Frames counts transmissions on the air (INIT + RESP).
	Frames int64
	// Receptions counts frames delivered to a radio in range.
	Receptions int64
	// CrossShardFrames counts receptions whose transmitter lives on
	// another shard.
	CrossShardFrames int64
	// Responses counts RESP transmissions committed by responders.
	Responses int64
	// BusySkips counts INIT receptions dropped because the responder was
	// still transmitting a previous response.
	BusySkips int64
	// Resolved counts responses whose (slot, shape) cell was unambiguous
	// in their round — the initiator extracts a distance.
	Resolved int64
	// SlotCollisions counts responses sharing a (slot, shape) cell with
	// another response of the same round.
	SlotCollisions int64
	// AbsErrSumM accumulates |d_est − d_true| in meters over resolved
	// responses.
	AbsErrSumM float64
}

// add accumulates o into s.
func (s *SwarmStats) add(o SwarmStats) {
	s.RoundsStarted += o.RoundsStarted
	s.RoundsCompleted += o.RoundsCompleted
	s.EmptyRounds += o.EmptyRounds
	s.Frames += o.Frames
	s.Receptions += o.Receptions
	s.CrossShardFrames += o.CrossShardFrames
	s.Responses += o.Responses
	s.BusySkips += o.BusySkips
	s.Resolved += o.Resolved
	s.SlotCollisions += o.SlotCollisions
	s.AbsErrSumM += o.AbsErrSumM
}

// MeanAbsErr returns the mean absolute ranging error over resolved
// responses, in meters (0 when none resolved).
func (s SwarmStats) MeanAbsErr() float64 {
	if s.Resolved == 0 {
		return 0
	}
	return s.AbsErrSumM / float64(s.Resolved)
}

// String renders the tally in a fixed format byte-stable across runs, for
// determinism comparisons.
func (s SwarmStats) String() string {
	return fmt.Sprintf("rounds=%d/%d empty=%d frames=%d rx=%d xshard=%d resp=%d busy=%d resolved=%d collided=%d abserr=%.17g",
		s.RoundsCompleted, s.RoundsStarted, s.EmptyRounds, s.Frames, s.Receptions,
		s.CrossShardFrames, s.Responses, s.BusySkips, s.Resolved, s.SlotCollisions, s.AbsErrSumM)
}

// Swarm event kinds for the canonical trace.
const (
	// SwarmTXInit is an initiator committing its INIT broadcast.
	SwarmTXInit uint8 = iota
	// SwarmRXInit is a responder receiving an INIT.
	SwarmRXInit
	// SwarmTXResp is a responder committing its delayed RESP.
	SwarmTXResp
	// SwarmRXResp is the initiator receiving one RESP.
	SwarmRXResp
	// SwarmRoundDone closes an initiator's response window.
	SwarmRoundDone
)

// SwarmEvent is one canonical trace record. The canonical order —
// (T, Node, Kind, Other) — depends only on simulation content, never on
// engine internals, so sequential and sharded traces compare byte-equal.
type SwarmEvent struct {
	// T is the event time in seconds.
	T float64
	// Node is the acting node.
	Node int32
	// Other is the peer node (or round index / arrival count, by kind).
	Other int32
	// Kind is one of the Swarm* constants.
	Kind uint8
}

// swarmNode is the static per-node state plus the one mutable field
// (busyUntil) that is only ever touched by the node's owning shard.
type swarmNode struct {
	track     Track
	phase     float64 // initiator round phase in [0, RoundPeriod)
	busyUntil float64 // responder TX busy horizon; owned by the home shard
	id        int32
	shard     int32
	slot      uint16
	shape     uint16
	initiator bool
}

// swarmRound is one initiator round in flight. It is created on the
// initiator's shard; arrivals are appended there too (RESP receptions run
// on the initiator's shard), while responder-side handlers only read the
// immutable init/k fields. The flight-recorder span is likewise touched
// only by initiator-shard handlers (roundPrep and roundDone), whose
// cross-window ordering the barrier guarantees.
type swarmRound struct {
	arrivals []swarmArrival
	sp       *trace.Span
	init     int32
	k        uint32
}

type swarmArrival struct {
	estErr float64
	resp   int32
	slot   uint16
	shape  uint16
}

// Swarm is a built swarm deployment: nodes, tracks, shard partition,
// candidate neighbor lists and the derived conservative lookahead. One
// Swarm can be run multiple times (sequentially or sharded); each Run
// resets the mutable state.
type Swarm struct {
	cfg       SwarmConfig
	part      GridPartition
	nodes     []swarmNode
	cand      [][]int32 // per-initiator candidate responders (home dist ≤ reach)
	lookahead float64
	minSep    float64 // min cross-shard pair separation lower bound, m
	side      float64 // deployment square side, m
	maxExtra  float64 // largest slot delay, s
	respFrame float64 // RESP on-air duration, s
	tailSlack float64 // response-window close margin after INIT TX, s

	// Per-shard mutable run state, merged in shard order after the run.
	shardStats  []SwarmStats
	shardTraces [][]SwarmEvent
	scratch     [][]uint16 // per-shard (slot, shape) occupancy scratch

	// Flight recorder (SetFlightRecorder): nil disables; rounds open one
	// root span each. Which rounds the tracer samples depends on Begin
	// arrival order, so trace *content* is deterministic only at one
	// worker; the simulation results stay bit-identical regardless.
	flight *trace.Tracer

	// Live round counter (SetRecorder): resolved once so the per-round
	// hot path records through a plain pointer, never a map lookup. Nil
	// when no recorder is attached.
	liveRounds *obs.Counter
}

// SwarmResult is the outcome of one swarm run.
type SwarmResult struct {
	// Stats is the merged tally.
	Stats SwarmStats
	// PerShard holds each shard's own tally in shard order.
	PerShard []SwarmStats
	// Trace is the canonical event trace (nil unless RecordTrace).
	Trace []SwarmEvent
	// Events is the number of discrete events executed.
	Events int
	// Shards and Workers describe the engine that produced the result
	// (Workers is 0 for the sequential reference).
	Shards, Workers int
	// Windows is the number of conservative barrier windows (0
	// sequentially).
	Windows int
}

// NewSwarm builds the deployment: positions, trajectories and round
// phases from per-node split RNG streams, the spatial shard partition,
// per-initiator candidate lists, and the conservative lookahead derived
// from the protocol's decision lead and the minimum cross-shard
// separation. Every error wraps ErrInvalidSwarmConfig.
func NewSwarm(cfg SwarmConfig) (*Swarm, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Swarm{cfg: cfg}
	s.side = math.Sqrt(float64(cfg.N) / cfg.Density)
	horizon := cfg.Duration + 10e-3
	s.maxExtra = float64(cfg.Plan.NumSlots-1) * cfg.Plan.SlotWidth
	frame, err := airtime.PaperConfig().FrameDuration(airtime.RespPayloadBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidSwarmConfig, err)
	}
	s.respFrame = frame
	roam := cfg.Mobility.RoamRadius
	s.tailSlack = cfg.ResponseDelay + s.maxExtra + 2*(cfg.Range+4*roam)/channel.SpeedOfLight + 1e-6
	// An initiator's next round must not start before its previous one
	// closed: rounds per initiator stay bounded by Duration/round.
	if round := cfg.DecisionLead + s.tailSlack; cfg.RoundPeriod < round {
		return nil, fmt.Errorf("%w: round period %g s is shorter than one round (%g s)",
			ErrInvalidSwarmConfig, cfg.RoundPeriod, round)
	}
	// Count the cells in float64: a tiny cell overflows int and would
	// otherwise allocate a grid far beyond memory.
	if perSide := math.Max(1, math.Ceil(s.side/cfg.CellSize)); perSide*perSide > float64(cfg.N) {
		return nil, fmt.Errorf("%w: cell size %g m gives a %g-cell grid for %d nodes",
			ErrInvalidSwarmConfig, cfg.CellSize, perSide*perSide, cfg.N)
	}
	s.part, err = NewGridPartition(geom.Point{}, geom.Point{X: s.side, Y: s.side}, cfg.CellSize)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidSwarmConfig, err)
	}

	// Per-node split streams: node i's home, trajectory and phase depend
	// only on (Seed, i), never on other nodes or build order.
	capacity := cfg.Plan.Capacity()
	s.nodes = make([]swarmNode, cfg.N)
	for i := range s.nodes {
		rng := rand.New(rand.NewPCG(cfg.Seed, splitKey(uint64(i))))
		home := geom.Point{X: rng.Float64() * s.side, Y: rng.Float64() * s.side}
		n := &s.nodes[i]
		n.id = int32(i)
		n.shard = int32(s.part.ShardOf(home))
		if n.track, err = NewTrack(home, cfg.Mobility, rng, horizon); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidSwarmConfig, err)
		}
		n.initiator = i%cfg.InitiatorEvery == 0
		if n.initiator {
			n.phase = rng.Float64() * cfg.RoundPeriod
		} else {
			slot, shape, err := cfg.Plan.Assign(i % capacity)
			if err != nil {
				return nil, fmt.Errorf("%w: %w", ErrInvalidSwarmConfig, err)
			}
			n.slot, n.shape = uint16(slot), uint16(shape)
		}
	}

	s.buildCandidates(roam)
	// Conservative lookahead: every cross-shard message is emitted at
	// least protocolLead before delivery (INIT by the decision lead, RESP
	// by the response delay minus the worst-case TX truncation), plus the
	// flight time floor from the minimum cross-shard separation. Static
	// nodes meet that floor exactly, and the handlers add the same terms in
	// another order, so the window keeps a margin of a few ulps of the
	// latest event time against rounding. A round starts by Duration, or at
	// its first phase in [0, RoundPeriod).
	protocolLead := math.Min(cfg.DecisionLead, cfg.ResponseDelay-dw1000.DelayedTXGranularity)
	latest := math.Max(cfg.Duration, cfg.RoundPeriod) + cfg.DecisionLead + s.tailSlack
	s.lookahead = protocolLead + s.minSep/channel.SpeedOfLight - latest*0x1p-48
	if s.lookahead <= 0 {
		return nil, fmt.Errorf("%w: decision lead %g s is below the time resolution of a %g s run",
			ErrInvalidSwarmConfig, cfg.DecisionLead, latest)
	}
	return s, nil
}

// buildCandidates fills the per-initiator candidate lists (every node
// whose home is within reach = Range + 2·RoamRadius — the farthest a pair
// can be heard across) and computes the minimum cross-shard separation.
func (s *Swarm) buildCandidates(roam float64) {
	reach := s.cfg.Range + 2*roam
	// Buckets at least reach wide put every pair within reach in adjacent
	// buckets; about one node per bucket is fine enough, and keeps a tiny
	// reach from asking for more buckets than memory holds.
	width := math.Max(reach, s.side/math.Ceil(math.Sqrt(float64(len(s.nodes)))))
	cols := int(s.side/width) + 1
	buckets := make([][]int32, cols*cols)
	bucketOf := func(p geom.Point) (int, int) {
		bx, by := int(p.X/width), int(p.Y/width)
		if bx < 0 {
			bx = 0
		}
		if bx >= cols {
			bx = cols - 1
		}
		if by < 0 {
			by = 0
		}
		if by >= cols {
			by = cols - 1
		}
		return bx, by
	}
	for i := range s.nodes {
		bx, by := bucketOf(s.nodes[i].track.Home())
		buckets[by*cols+bx] = append(buckets[by*cols+bx], int32(i))
	}
	s.cand = make([][]int32, len(s.nodes))
	minSep := math.Inf(1)
	for i := range s.nodes {
		n := &s.nodes[i]
		if !n.initiator {
			continue
		}
		home := n.track.Home()
		bx, by := bucketOf(home)
		var list []int32
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				x, y := bx+dx, by+dy
				if x < 0 || x >= cols || y < 0 || y >= cols {
					continue
				}
				for _, j := range buckets[y*cols+x] {
					c := &s.nodes[j]
					if j == int32(i) || c.initiator {
						continue
					}
					d := home.Dist(c.track.Home())
					if d > reach {
						continue
					}
					list = append(list, j)
					if c.shard != n.shard {
						if sep := d - 2*roam; sep < minSep {
							minSep = sep
						}
					}
				}
			}
		}
		slices.Sort(list)
		s.cand[i] = list
	}
	if math.IsInf(minSep, 1) {
		// No cross-shard pair can ever communicate; the flight floor is
		// unconstrained, so any non-negative value is safe.
		minSep = s.cfg.Range
	}
	if minSep < 0 {
		minSep = 0
	}
	s.minSep = minSep
}

// SetFlightRecorder attaches (nil detaches) a flight recorder: every
// initiator round opens one SpanSwarmRound root span carrying the seed,
// initiating node and round counter, ended with the outcome and response
// accounting, so crtrace can triage swarm failures like campaign ones.
// Tracing is observational only — results stay bit-identical.
func (s *Swarm) SetFlightRecorder(tr *trace.Tracer) { s.flight = tr }

// SetRecorder attaches (nil detaches) a live metric recorder and resolves
// the live round counter once: round completions tick it through a plain
// pointer on the hot path, never a map lookup. The handle needs a
// *obs.Registry; a plain Recorder leaves the live mirror off. Post-run
// tallies still go through Record.
func (s *Swarm) SetRecorder(rec obs.Recorder) {
	s.liveRounds = nil
	if reg, ok := rec.(*obs.Registry); ok {
		s.liveRounds = reg.Counter(MetricSwarmRoundsLive)
	}
}

// Lookahead returns the derived conservative window length in seconds.
func (s *Swarm) Lookahead() float64 { return s.lookahead }

// Shards returns the number of spatial shards of the partition.
func (s *Swarm) Shards() int { return s.part.Shards() }

// Side returns the deployment square side in meters.
func (s *Swarm) Side() float64 { return s.side }

// splitKey derives a per-node PCG stream key (splitmix64 increment).
func splitKey(i uint64) uint64 { return mix64(i + 0x9e3779b97f4a7c15) }

// mix64 is the splitmix64 finalizer: a bijective avalanche mix used to
// derive order-independent per-(node, round) draws from the seed.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash-draw stream tags.
const (
	streamQuant uint64 = 1 // TX quantization truncation
	streamErr   uint64 = 2 // RX timestamp jitter pair
)

// hash01 returns a uniform draw in (0, 1] keyed by (seed, node, round,
// stream). Being a pure hash, the draw does not depend on event execution
// order — the property that makes sequential and sharded runs identical.
func (s *Swarm) hash01(node int32, round uint32, stream uint64) float64 {
	h := mix64(s.cfg.Seed ^ mix64(uint64(uint32(node))<<32|uint64(round)^mix64(stream)))
	return float64(h>>11)*(1.0/(1<<53)) + 0x1p-54
}

// gauss returns a standard normal draw keyed like hash01 (Box–Muller).
func (s *Swarm) gauss(node int32, round uint32, stream uint64) float64 {
	u1 := s.hash01(node, round, stream)
	u2 := s.hash01(node, round, stream+0x10)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// trace appends a canonical trace record to the executing shard's buffer.
// Taking the Scheduler (rather than a raw shard index) makes the slot
// ownership structural: the buffer written is always the calling
// handler's own, which is what lets handlers trace without locks.
func (s *Swarm) trace(sc Scheduler, t float64, node int32, kind uint8, other int32) {
	if !s.cfg.RecordTrace {
		return
	}
	shard := sc.Shard()
	s.shardTraces[shard] = append(s.shardTraces[shard], SwarmEvent{T: t, Node: node, Other: other, Kind: kind})
}

// reset prepares the mutable per-run state.
func (s *Swarm) reset() {
	shards := s.part.Shards()
	s.shardStats = make([]SwarmStats, shards)
	s.shardTraces = make([][]SwarmEvent, shards)
	s.scratch = make([][]uint16, shards)
	capacity := s.cfg.Plan.Capacity()
	for i := range s.scratch {
		s.scratch[i] = make([]uint16, capacity)
	}
	for i := range s.nodes {
		s.nodes[i].busyUntil = 0
	}
}

// seed schedules every initiator's first round on its home shard.
func (s *Swarm) seed(r Runner) error {
	for i := range s.nodes {
		n := &s.nodes[i]
		if !n.initiator {
			continue
		}
		if err := r.Schedule(int(n.shard), n.phase, s.roundPrep(n.id, 0)); err != nil {
			return err
		}
	}
	return nil
}

// roundPrep is the initiator committing to round k: it schedules the next
// round, the INIT transmission DecisionLead ahead, the per-candidate INIT
// receptions (cross-shard through the bus, with future timestamps — this
// decision lead is what funds the lookahead), and the response-window
// close.
func (s *Swarm) roundPrep(init int32, k uint32) Handler {
	return func(sc Scheduler) {
		now := sc.Now()
		st := &s.shardStats[sc.Shard()]
		if next := now + s.cfg.RoundPeriod; next <= s.cfg.Duration {
			if err := sc.Schedule(next, s.roundPrep(init, k+1)); err != nil {
				sc.Fail(err)
				return
			}
		}
		st.RoundsStarted++
		tTX := now + s.cfg.DecisionLead
		n := &s.nodes[init]
		pi := n.track.Pos(tTX)
		if err := sc.Schedule(tTX, func(sc Scheduler) {
			s.shardStats[sc.Shard()].Frames++
			s.trace(sc, tTX, init, SwarmTXInit, int32(k))
		}); err != nil {
			sc.Fail(err)
			return
		}
		rd := &swarmRound{init: init, k: k}
		if s.flight != nil {
			rd.sp = s.flight.Begin(trace.SpanSwarmRound, trace.Attrs{
				trace.AttrSeed:  s.cfg.Seed,
				trace.AttrNode:  init,
				trace.AttrRound: k,
			})
		}
		inRange := 0
		for _, ci := range s.cand[init] {
			c := &s.nodes[ci]
			d := pi.Dist(c.track.Pos(tTX))
			if d > s.cfg.Range {
				continue
			}
			inRange++
			tRX := tTX + d/channel.SpeedOfLight
			cross := c.shard != n.shard
			if err := sc.Send(int(c.shard), tRX, s.rxInit(rd, ci, cross)); err != nil {
				sc.Fail(err)
				return
			}
		}
		if inRange == 0 {
			st.EmptyRounds++
			st.RoundsCompleted++
			if s.liveRounds != nil {
				s.liveRounds.Inc()
			}
			if rd.sp.Recording() {
				rd.sp.EndWith(trace.Attrs{trace.AttrStatus: "empty"})
			}
			return
		}
		if err := sc.Schedule(tTX+s.tailSlack, s.roundDone(rd)); err != nil {
			sc.Fail(err)
		}
	}
}

// rxInit is a responder receiving the INIT: if idle, it commits its RESP
// at Δ_RESP plus its slot delay (truncated to the delayed-TX granularity)
// and sends the reception back to the initiator's shard — again with a
// future timestamp at least ResponseDelay−granularity ahead.
func (s *Swarm) rxInit(rd *swarmRound, resp int32, cross bool) Handler {
	return func(sc Scheduler) {
		now := sc.Now()
		st := &s.shardStats[sc.Shard()]
		st.Receptions++
		if cross {
			st.CrossShardFrames++
		}
		s.trace(sc, now, resp, SwarmRXInit, rd.init)
		rn := &s.nodes[resp]
		if rn.busyUntil > now {
			st.BusySkips++
			return
		}
		// Requested delay, truncated by the 8 ns delayed-TX granularity
		// (Sect. VI-B); the truncation is the dominant ranging error.
		qerr := s.hash01(resp, rd.k, streamQuant^uint64(uint32(rd.init))<<3) * dw1000.DelayedTXGranularity
		tResp := now + s.cfg.ResponseDelay + float64(rn.slot)*s.cfg.Plan.SlotWidth - qerr
		rn.busyUntil = tResp + s.respFrame
		st.Responses++
		if err := sc.Schedule(tResp, func(sc Scheduler) {
			s.shardStats[sc.Shard()].Frames++
			s.trace(sc, tResp, resp, SwarmTXResp, rd.init)
		}); err != nil {
			sc.Fail(err)
			return
		}
		in := &s.nodes[rd.init]
		d := rn.track.Pos(tResp).Dist(in.track.Pos(tResp))
		tArr := tResp + d/channel.SpeedOfLight
		// Analytic SS-TWR error: half the uncompensated TX truncation plus
		// the two RX timestamp jitters (σ₀ each, Box–Muller pair drawn
		// from the round's hash stream).
		sigma := dw1000.DefaultJitter().Sigma0 * math.Sqrt2
		estErr := channel.SpeedOfLight / 2 * (qerr + s.gauss(resp, rd.k, streamErr^uint64(uint32(rd.init))<<3)*sigma)
		if err := sc.Send(int(in.shard), tArr, s.rxResp(rd, resp, cross, estErr)); err != nil {
			sc.Fail(err)
		}
	}
}

// rxResp is the initiator receiving one RESP; it accumulates the arrival
// into the round (always on the initiator's own shard).
func (s *Swarm) rxResp(rd *swarmRound, resp int32, cross bool, estErr float64) Handler {
	return func(sc Scheduler) {
		st := &s.shardStats[sc.Shard()]
		st.Receptions++
		if cross {
			st.CrossShardFrames++
		}
		s.trace(sc, sc.Now(), rd.init, SwarmRXResp, resp)
		rn := &s.nodes[resp]
		rd.arrivals = append(rd.arrivals, swarmArrival{
			estErr: estErr, resp: resp, slot: rn.slot, shape: rn.shape,
		})
	}
}

// roundDone closes the response window: arrivals are sorted into the
// canonical responder order, responses alone in their (slot, shape) cell
// resolve to a distance measurement, cells with ≥ 2 responses are slot
// collisions (Sect. VIII).
func (s *Swarm) roundDone(rd *swarmRound) Handler {
	return func(sc Scheduler) {
		st := &s.shardStats[sc.Shard()]
		st.RoundsCompleted++
		s.trace(sc, sc.Now(), rd.init, SwarmRoundDone, int32(len(rd.arrivals)))
		slices.SortFunc(rd.arrivals, func(a, b swarmArrival) int { return int(a.resp - b.resp) })
		occ := s.scratch[sc.Shard()]
		numSlots := uint16(s.cfg.Plan.NumSlots)
		for _, a := range rd.arrivals {
			occ[a.shape*numSlots+a.slot]++
		}
		resolved, collided := int64(0), int64(0)
		for _, a := range rd.arrivals {
			if occ[a.shape*numSlots+a.slot] == 1 {
				resolved++
				st.AbsErrSumM += math.Abs(a.estErr)
			} else {
				collided++
			}
		}
		st.Resolved += resolved
		st.SlotCollisions += collided
		for _, a := range rd.arrivals {
			occ[a.shape*numSlots+a.slot] = 0
		}
		if s.liveRounds != nil {
			s.liveRounds.Inc()
		}
		if rd.sp.Recording() {
			status := "ok"
			if collided > 0 {
				status = "slot-collision"
			}
			rd.sp.EndWith(trace.Attrs{
				trace.AttrStatus:     status,
				trace.AttrResponses:  len(rd.arrivals),
				trace.AttrResolved:   resolved,
				trace.AttrCollisions: collided,
			})
		}
	}
}

// Run executes the swarm on the given runner (which must have been built
// with s.Shards() shards) and returns the merged result. Per-shard stats
// are merged in shard order and the trace is sorted into canonical order,
// so results from the sequential and sharded engines compare byte-equal.
func (s *Swarm) Run(r Runner) (*SwarmResult, error) {
	if r.Shards() != s.part.Shards() {
		return nil, fmt.Errorf("sim: runner has %d shards, swarm wants %d", r.Shards(), s.part.Shards())
	}
	s.reset()
	if err := s.seed(r); err != nil {
		return nil, err
	}
	events, err := r.Run()
	if err != nil {
		return nil, err
	}
	res := &SwarmResult{
		PerShard: s.shardStats,
		Events:   events,
		Shards:   s.part.Shards(),
	}
	for i := range s.shardStats {
		res.Stats.add(s.shardStats[i])
	}
	if s.cfg.RecordTrace {
		total := 0
		for _, tr := range s.shardTraces {
			total += len(tr)
		}
		res.Trace = make([]SwarmEvent, 0, total)
		for _, tr := range s.shardTraces {
			res.Trace = append(res.Trace, tr...)
		}
		slices.SortFunc(res.Trace, compareSwarmEvents)
	}
	s.shardStats, s.shardTraces, s.scratch = nil, nil, nil
	return res, nil
}

// compareSwarmEvents orders trace records by (T, Node, Kind, Other) —
// simulation content only, no engine state.
func compareSwarmEvents(a, b SwarmEvent) int {
	switch {
	case a.T < b.T:
		return -1
	case a.T > b.T:
		return 1
	case a.Node != b.Node:
		return int(a.Node - b.Node)
	case a.Kind != b.Kind:
		return int(a.Kind) - int(b.Kind)
	}
	return int(a.Other - b.Other)
}

// RunSharded runs the swarm on the parallel engine with the given worker
// count (0 selects GOMAXPROCS). The result is bit-identical at any worker
// count to Run on the single-goroutine reference engine
// (NewSequentialRunner(Shards())).
func (s *Swarm) RunSharded(workers int) (*SwarmResult, error) {
	return s.RunShardedProfiled(workers, nil)
}

// RunShardedProfiled runs the swarm on the parallel engine with an
// execution profiler attached (nil runs unprofiled — identical to
// RunSharded). Profiling is observational: the result is bit-identical
// with and without it.
func (s *Swarm) RunShardedProfiled(workers int, p *EngineProfiler) (*SwarmResult, error) {
	eng, err := NewShardedEngine(ShardedConfig{
		Shards:    s.part.Shards(),
		Workers:   workers,
		Lookahead: s.lookahead,
	})
	if err != nil {
		return nil, err
	}
	eng.SetProfiler(p)
	res, err := s.Run(eng)
	if err != nil {
		return nil, err
	}
	res.Workers = eng.Workers()
	res.Windows = eng.Windows()
	return res, nil
}

// Record mirrors a run's merged tallies into rec (nil disables). Labeled
// response outcomes are recorded when the Recorder supports labeled
// series, mirroring the Stats contract of the radio-level simulator.
func (s *Swarm) Record(rec obs.Recorder, res *SwarmResult) {
	if rec == nil || res == nil {
		return
	}
	rec.Count(MetricSwarmEvents, int64(res.Events))
	rec.Count(MetricSwarmRounds, res.Stats.RoundsCompleted)
	rec.Count(MetricSwarmFrames, res.Stats.Frames)
	rec.Count(MetricSwarmCrossShard, res.Stats.CrossShardFrames)
	// Swarm frames are frames on the air like any other simulated frame,
	// so the network-wide tallies include them; a swarm-only run report
	// then carries the sim.* counters every valid report must have.
	rec.Count(MetricFramesOnAir, res.Stats.Frames)
	rec.Count(MetricReceptions, res.Stats.Receptions)
	if vs, ok := rec.(obs.VecSource); ok {
		vec := vs.CounterVec(MetricSwarmResponsesByOutcome, "outcome")
		vec.With("resolved").Add(res.Stats.Resolved)
		vec.With("slot_collision").Add(res.Stats.SlotCollisions)
		vec.With("busy").Add(res.Stats.BusySkips)
	}
}
