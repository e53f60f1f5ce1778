package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestShardedEngineConfigValidation(t *testing.T) {
	if _, err := NewShardedEngine(ShardedConfig{Shards: 0, Lookahead: 1}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewShardedEngine(ShardedConfig{Shards: 1, Lookahead: 0}); err == nil {
		t.Error("zero lookahead accepted")
	}
	eng, err := NewShardedEngine(ShardedConfig{Shards: 2, Lookahead: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Schedule(2, 0, func(Scheduler) {}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := eng.Schedule(0, 0, nil); err == nil {
		t.Error("nil handler accepted")
	}
	if eng.Workers() < 1 {
		t.Errorf("workers %d", eng.Workers())
	}
}

// TestShardedEngineLookaheadViolation pins the conservative contract: a
// cross-shard send targeting a time inside the current barrier window is
// an error, because the destination shard may already have advanced past
// it.
func TestShardedEngineLookaheadViolation(t *testing.T) {
	eng, err := NewShardedEngine(ShardedConfig{Shards: 2, Workers: 1, Lookahead: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Schedule(0, 0, func(sc Scheduler) {
		if err := sc.Send(1, 5, func(Scheduler) {}); err != nil {
			sc.Fail(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "violates lookahead") {
		t.Fatalf("run error %v, want lookahead violation", err)
	}
	// A send to the handler's own shard is a plain Schedule: no lookahead.
	eng2, _ := NewShardedEngine(ShardedConfig{Shards: 2, Workers: 1, Lookahead: 10})
	ran := false
	if err := eng2.Schedule(0, 0, func(sc Scheduler) {
		if err := sc.Send(0, 5, func(Scheduler) { ran = true }); err != nil {
			sc.Fail(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n, err := eng2.Run(); err != nil || n != 2 || !ran {
		t.Fatalf("self-send run: n=%d ran=%v err=%v", n, ran, err)
	}
}

func TestShardedEnginePanicBecomesError(t *testing.T) {
	eng, err := NewShardedEngine(ShardedConfig{Shards: 1, Workers: 1, Lookahead: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Schedule(0, 0, func(Scheduler) { panic("boom") }); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("run error %v, want panic converted", err)
	}
}

// ringTrace runs a deterministic multi-token ring workload — tokens
// bouncing between shards with per-hop fan-out to the local shard — on a
// Runner and returns the merged (time, shard, token) log plus the event
// count.
func ringTrace(t *testing.T, r Runner, shards int, hop float64) ([]string, int) {
	t.Helper()
	logs := make([][]string, shards)
	var bounce func(token int, hops int) Handler
	bounce = func(token, hops int) Handler {
		return func(sc Scheduler) {
			logs[sc.Shard()] = append(logs[sc.Shard()],
				fmt.Sprintf("t=%.3f shard=%d token=%d hops=%d", sc.Now(), sc.Shard(), token, hops))
			if hops == 0 {
				return
			}
			// Local follow-up work inside the window.
			if err := sc.Schedule(sc.Now()+hop/16, func(sc Scheduler) {
				logs[sc.Shard()] = append(logs[sc.Shard()],
					fmt.Sprintf("t=%.3f shard=%d token=%d local", sc.Now(), sc.Shard(), token))
			}); err != nil {
				sc.Fail(err)
				return
			}
			next := (sc.Shard() + token + 1) % shards
			if err := sc.Send(next, sc.Now()+hop, bounce(token, hops-1)); err != nil {
				sc.Fail(err)
			}
		}
	}
	for token := 0; token < 5; token++ {
		// Distinct start times so the workload has no cross-shard ties.
		if err := r.Schedule(token%shards, float64(token)*0.013, bounce(token, 12)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var merged []string
	for _, l := range logs {
		merged = append(merged, l...)
	}
	return merged, n
}

// TestShardedEngineMatchesSequential checks the core contract on a
// cross-shard workload: the sharded engine produces exactly the
// sequential per-shard logs and event count at 1, 2 and 8 workers.
func TestShardedEngineMatchesSequential(t *testing.T) {
	const shards = 4
	const hop = 1.0
	seqr, err := NewSequentialRunner(shards)
	if err != nil {
		t.Fatal(err)
	}
	want, wantN := ringTrace(t, seqr, shards, hop)
	if wantN == 0 || len(want) == 0 {
		t.Fatal("empty reference run")
	}
	for _, workers := range []int{1, 2, 8} {
		eng, err := NewShardedEngine(ShardedConfig{Shards: shards, Workers: workers, Lookahead: hop})
		if err != nil {
			t.Fatal(err)
		}
		got, gotN := ringTrace(t, eng, shards, hop)
		if gotN != wantN {
			t.Errorf("workers=%d: %d events, want %d", workers, gotN, wantN)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d log lines, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: log[%d] = %q, want %q", workers, i, got[i], want[i])
			}
		}
		if eng.Windows() == 0 {
			t.Errorf("workers=%d: no barrier windows", workers)
		}
	}
}

// TestShardedEngineRunAllocsFlatInWindows checks that a one-worker run
// allocates nothing per barrier window: a ring of tokens crossing the bus
// once per window allocates the same at 10 and at 1000 windows. The
// multi-worker path still starts its workers afresh each window.
func TestShardedEngineRunAllocsFlatInWindows(t *testing.T) {
	const shards = 64
	allocs := func(windows int) float64 {
		return testing.AllocsPerRun(5, func() {
			eng, err := NewShardedEngine(ShardedConfig{Shards: shards, Workers: 1, Lookahead: 1})
			if err != nil {
				t.Fatal(err)
			}
			var hop Handler
			hop = func(sc Scheduler) {
				if next := sc.Now() + 1; next < float64(windows) {
					if err := sc.Send((sc.Shard()+1)%shards, next, hop); err != nil {
						sc.Fail(err)
					}
				}
			}
			for sh := 0; sh < shards; sh++ {
				if err := eng.Schedule(sh, 0, hop); err != nil {
					t.Fatal(err)
				}
			}
			n, err := eng.Run()
			if err != nil || n != shards*windows || eng.Windows() != windows {
				t.Fatalf("run: %d events in %d windows, err %v; want %d in %d",
					n, eng.Windows(), err, shards*windows, windows)
			}
		})
	}
	if few, many := allocs(10), allocs(1000); many > few {
		t.Errorf("one-worker run allocates %.0f times at 1000 windows, %.0f at 10", many, few)
	}
}
