package sim

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
)

// boundarySwarmConfig builds a deployment with many shards relative to
// the radio reach, so plenty of pairs sit near (and across) shard
// boundaries — the regime where conservative windowing has to get the
// ordering right.
func boundarySwarmConfig(n int, seed uint64) SwarmConfig {
	return SwarmConfig{
		N:           n,
		Seed:        seed,
		CellSize:    80, // reach = Range + 2·Roam = 50 < 80: adjacent-cell traffic only
		RecordTrace: true,
	}
}

func runSwarmSequential(t *testing.T, cfg SwarmConfig) *SwarmResult {
	t.Helper()
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewSequentialRunner(sw.Shards())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSwarmShardedMatchesSequential is the same-seed property test of the
// sharded engine: for worker counts 1, 2 and 8, the sharded run must
// produce byte-identical stats (String() includes float bits via %.17g),
// identical per-shard tallies, the identical canonical trace, and the
// same event count as the sequential reference — including cross-shard
// traffic from near-boundary placements.
func TestSwarmShardedMatchesSequential(t *testing.T) {
	cfg := boundarySwarmConfig(400, 1)
	want := runSwarmSequential(t, cfg)
	if want.Stats.RoundsCompleted == 0 || want.Stats.Resolved == 0 {
		t.Fatalf("degenerate reference run: %+v", want.Stats)
	}
	if want.Stats.CrossShardFrames == 0 {
		t.Fatal("no cross-shard traffic; boundary regime not exercised")
	}
	if len(want.Trace) == 0 {
		t.Fatal("reference trace empty")
	}
	sw, err := NewSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := sw.RunSharded(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Stats != want.Stats {
			t.Errorf("workers=%d: stats\n got %s\nwant %s", workers, got.Stats, want.Stats)
		}
		if got.Stats.String() != want.Stats.String() {
			t.Errorf("workers=%d: stats bytes differ", workers)
		}
		if got.Events != want.Events {
			t.Errorf("workers=%d: %d events, want %d", workers, got.Events, want.Events)
		}
		if len(got.PerShard) != len(want.PerShard) {
			t.Fatalf("workers=%d: %d shards, want %d", workers, len(got.PerShard), len(want.PerShard))
		}
		for i := range want.PerShard {
			if got.PerShard[i] != want.PerShard[i] {
				t.Errorf("workers=%d: shard %d stats differ:\n got %s\nwant %s",
					workers, i, got.PerShard[i], want.PerShard[i])
			}
		}
		if len(got.Trace) != len(want.Trace) {
			t.Fatalf("workers=%d: trace length %d, want %d", workers, len(got.Trace), len(want.Trace))
		}
		for i := range want.Trace {
			if got.Trace[i] != want.Trace[i] {
				t.Fatalf("workers=%d: trace[%d] = %+v, want %+v", workers, i, got.Trace[i], want.Trace[i])
			}
		}
		if got.Windows == 0 {
			t.Errorf("workers=%d: no barrier windows", workers)
		}
	}
}

// TestSwarmSameSeedReproduces pins build+run determinism: two independent
// Swarm builds from the same config produce identical results.
func TestSwarmSameSeedReproduces(t *testing.T) {
	cfg := boundarySwarmConfig(300, 7)
	a := runSwarmSequential(t, cfg)
	b := runSwarmSequential(t, cfg)
	if a.Stats != b.Stats || a.Events != b.Events {
		t.Fatalf("same seed differs:\n a %s (%d events)\n b %s (%d events)",
			a.Stats, a.Events, b.Stats, b.Events)
	}
	c := runSwarmSequential(t, SwarmConfig{N: 300, Seed: 8, CellSize: 80})
	if a.Stats == c.Stats {
		t.Fatal("different seeds produced identical stats")
	}
}

// TestSwarmStatsConsistency checks the protocol bookkeeping invariants on
// a mid-size run.
func TestSwarmStatsConsistency(t *testing.T) {
	res := runSwarmSequential(t, SwarmConfig{N: 500, Seed: 3})
	s := res.Stats
	if s.RoundsStarted == 0 {
		t.Fatal("no rounds started")
	}
	if s.RoundsCompleted != s.RoundsStarted {
		t.Errorf("completed %d of %d rounds", s.RoundsCompleted, s.RoundsStarted)
	}
	// Every response is either resolved or slot-collided, never both.
	if s.Resolved+s.SlotCollisions != s.Responses {
		t.Errorf("resolved %d + collided %d != responses %d", s.Resolved, s.SlotCollisions, s.Responses)
	}
	// One INIT per non-empty round plus one RESP per response.
	if want := (s.RoundsStarted - s.EmptyRounds) + s.Responses; s.Frames != want {
		t.Errorf("frames %d, want %d", s.Frames, want)
	}
	// INIT receptions = responses + busy skips; RESP receptions = responses.
	if want := 2*s.Responses + s.BusySkips; s.Receptions != want {
		t.Errorf("receptions %d, want %d", s.Receptions, want)
	}
	if s.Resolved > 0 {
		// The analytic error model is dominated by the ≤ 8 ns TX
		// truncation: mean |error| must sit at decimeter scale (Sect. VI).
		if err := s.MeanAbsErr(); err <= 0 || err > 2.5 {
			t.Errorf("mean abs ranging error %g m", err)
		}
	}
}

// TestSwarmLookaheadIsProtocolScale checks that the derived lookahead is
// funded by the protocol decision lead (hundreds of microseconds), not by
// the nanosecond-scale flight times — the property that makes windows
// large enough to batch thousands of events.
func TestSwarmLookaheadIsProtocolScale(t *testing.T) {
	sw, err := NewSwarm(boundarySwarmConfig(300, 5))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Lookahead() < 90e-6 {
		t.Fatalf("lookahead %g s, want protocol scale (≥ 90 µs)", sw.Lookahead())
	}
	if sw.Shards() < 4 {
		t.Fatalf("only %d shards; boundary config should give a multi-cell grid", sw.Shards())
	}
}

// TestSwarmShardedSpeedup asserts the headline perf claim — W workers
// ≥ some real speedup over 1 worker at 10k nodes — when the host actually
// has cores to run them. On single-core machines (CI fallback) it only
// checks that the sharded run completes.
func TestSwarmShardedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node swarm in -short mode")
	}
	sw, err := NewSwarm(SwarmConfig{N: 10000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.RunSharded(0); err != nil {
		t.Fatal(err)
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: speedup assertion needs ≥ 4 cores", runtime.GOMAXPROCS(0))
	}
	t1 := benchSwarm(t, sw, 1)
	tw := benchSwarm(t, sw, runtime.GOMAXPROCS(0))
	if speedup := t1 / tw; speedup < 2 {
		t.Errorf("W=%d speedup %.2fx over W=1, want ≥ 2x", runtime.GOMAXPROCS(0), speedup)
	}
}

func benchSwarm(t *testing.T, sw *Swarm, workers int) float64 {
	t.Helper()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := sw.RunSharded(workers); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best.Seconds()
}

// TestSwarmStaticNodesRespectLookahead runs static deployments, whose
// closest cross-shard pair sits exactly at the lookahead's flight-time
// floor: rounding in the handlers' send times must not push a cross-shard
// message inside the current window, and the sharded run must match the
// sequential reference.
func TestSwarmStaticNodesRespectLookahead(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		for _, n := range []int{100, 174, 200} {
			cfg := SwarmConfig{N: n, Seed: seed, NoMobility: true}
			want := runSwarmSequential(t, cfg)
			sw, err := NewSwarm(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sw.RunSharded(1)
			if err != nil {
				t.Fatalf("N %d seed %d: %v", n, seed, err)
			}
			if got.Stats.String() != want.Stats.String() {
				t.Fatalf("N %d seed %d: sharded %s, sequential %s", n, seed, got.Stats, want.Stats)
			}
		}
	}
}

func TestSwarmConfigRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mod  func(*SwarmConfig)
	}{
		{"NaN density", func(c *SwarmConfig) { c.Density = nan }},
		{"+Inf density", func(c *SwarmConfig) { c.Density = inf }},
		{"NaN range", func(c *SwarmConfig) { c.Range = nan }},
		{"NaN round period", func(c *SwarmConfig) { c.RoundPeriod = nan }},
		{"NaN duration", func(c *SwarmConfig) { c.Duration = nan }},
		{"+Inf duration", func(c *SwarmConfig) { c.Duration = inf }},
		{"-Inf response delay", func(c *SwarmConfig) { c.ResponseDelay = -inf }},
		{"NaN decision lead", func(c *SwarmConfig) { c.DecisionLead = nan }},
		{"NaN cell size", func(c *SwarmConfig) { c.CellSize = nan }},
		{"NaN slot width", func(c *SwarmConfig) { c.Plan = core.SlotPlan{NumSlots: 2, NumShapes: 4, SlotWidth: nan} }},
		{"+Inf roam radius", func(c *SwarmConfig) { c.Mobility = MobilityConfig{RoamRadius: inf, MaxSpeed: 1} }},
		{"NaN max speed", func(c *SwarmConfig) { c.Mobility = MobilityConfig{RoamRadius: 10, MaxSpeed: nan} }},
		{"NaN pause", func(c *SwarmConfig) { c.Mobility = MobilityConfig{RoamRadius: 10, MaxSpeed: 1, Pause: nan} }},
		// Finite configs that once ran out of memory, failed mid-run or
		// hung.
		{"millimeter cell size", func(c *SwarmConfig) { c.CellSize = 1e-3 }},
		{"picosecond round period", func(c *SwarmConfig) { c.RoundPeriod = 1e-12 }},
		{"1e-20 round period", func(c *SwarmConfig) { c.RoundPeriod = 1e-20 }},
		{"negative roam radius", func(c *SwarmConfig) { c.Mobility = MobilityConfig{RoamRadius: -5, MinSpeed: 1, MaxSpeed: 2} }},
		{"negative pause", func(c *SwarmConfig) { c.Mobility = MobilityConfig{RoamRadius: 10, MaxSpeed: 1, Pause: -1} }},
		{"1e300 roam radius", func(c *SwarmConfig) { c.Mobility = MobilityConfig{RoamRadius: 1e300, MinSpeed: 1, MaxSpeed: 2} }},
		{"1e12 m/s walkers", func(c *SwarmConfig) { c.Mobility = MobilityConfig{RoamRadius: 10, MinSpeed: 1e12, MaxSpeed: 1e12} }},
		{"sub-minimum response delay", func(c *SwarmConfig) { c.ResponseDelay = 20e-6 }},
		{"5e-324 decision lead", func(c *SwarmConfig) { c.DecisionLead = 5e-324 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SwarmConfig{N: 100, Seed: 1}
			tc.mod(&cfg)
			// Such configs once hung the run, so each row gets a deadline
			// and fails instead of stalling the suite.
			done := make(chan error, 1)
			go func() {
				sw, err := NewSwarm(cfg)
				if err == nil {
					_, err = sw.RunSharded(1)
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("invalid config accepted")
				}
				if !errors.Is(err, ErrInvalidSwarmConfig) {
					t.Fatalf("err = %v, want one wrapping ErrInvalidSwarmConfig", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("NewSwarm + RunSharded still running after 5 s")
			}
		})
	}
}
