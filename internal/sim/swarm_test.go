package sim

import (
	"runtime"
	"testing"
	"time"
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
