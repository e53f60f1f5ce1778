package sim

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
)

// FuzzSwarmConfig takes every float field of a SwarmConfig raw from the
// input — NaN, ±Inf, negative values and 1e300 included. NewSwarm must
// either refuse the config with an error wrapping ErrInvalidSwarmConfig,
// or the built swarm's RunSharded(1) must return within 10 s with finite
// stats. N is capped at 200 and Duration at 0.2 s, so a run's cost follows
// from the remaining inputs. A zero slot plan (all three plan inputs 0)
// selects the default plan.
func FuzzSwarmConfig(f *testing.F) {
	add := func(c SwarmConfig) {
		f.Add(c.N, c.InitiatorEvery, c.Density, c.Range, c.RoundPeriod, c.Duration,
			c.ResponseDelay, c.DecisionLead, c.CellSize, uint8(c.Plan.NumSlots), uint8(c.Plan.NumShapes),
			c.Plan.SlotWidth, c.Mobility.RoamRadius, c.Mobility.MinSpeed, c.Mobility.MaxSpeed,
			c.Mobility.Pause, c.NoMobility, c.Seed)
	}
	add(SwarmConfig{N: 100, Seed: 1})
	add(SwarmConfig{N: 100, Seed: 1, CellSize: 1e-3})
	add(SwarmConfig{N: 100, Seed: 1, RoundPeriod: 1e-12})
	add(SwarmConfig{N: 100, Seed: 1, Mobility: MobilityConfig{RoamRadius: -5, MinSpeed: 1, MaxSpeed: 2}})
	add(SwarmConfig{N: 100, Seed: 1, Mobility: MobilityConfig{RoamRadius: 1e300, MinSpeed: 1, MaxSpeed: 2}})
	add(SwarmConfig{N: 200, Seed: 2, Range: 1e-12, CellSize: 1e9, NoMobility: true, Plan: core.SingleSlot(4)})
	add(SwarmConfig{N: 200, Seed: 3, DecisionLead: 5e-324})
	add(SwarmConfig{N: 200, Seed: 4, Mobility: MobilityConfig{RoamRadius: 10, MinSpeed: 1e12, MaxSpeed: 1e12}})
	add(SwarmConfig{N: 174, Mobility: MobilityConfig{MaxSpeed: 38}})
	add(SwarmConfig{N: 27, Seed: 1, RoundPeriod: 624, NoMobility: true})

	f.Fuzz(func(t *testing.T, n, initiatorEvery int, density, rangeM, roundPeriod, duration,
		responseDelay, decisionLead, cellSize float64, numSlots, numShapes uint8, slotWidth,
		roam, minSpeed, maxSpeed, pause float64, noMobility bool, seed uint64) {
		cfg := SwarmConfig{
			N:              min(n, 200),
			InitiatorEvery: initiatorEvery,
			Density:        density,
			Range:          rangeM,
			RoundPeriod:    roundPeriod,
			Duration:       duration,
			ResponseDelay:  responseDelay,
			DecisionLead:   decisionLead,
			CellSize:       cellSize,
			Plan:           core.SlotPlan{NumSlots: int(numSlots), NumShapes: int(numShapes), SlotWidth: slotWidth},
			Mobility:       MobilityConfig{RoamRadius: roam, MinSpeed: minSpeed, MaxSpeed: maxSpeed, Pause: pause},
			NoMobility:     noMobility,
			Seed:           seed,
		}
		if cfg.Duration > 0.2 {
			cfg.Duration = 0.2
		}
		type outcome struct {
			res   *SwarmResult
			err   error
			built bool
		}
		done := make(chan outcome, 1)
		go func() {
			sw, err := NewSwarm(cfg)
			if err != nil {
				done <- outcome{err: err}
				return
			}
			res, err := sw.RunSharded(1)
			done <- outcome{res: res, err: err, built: true}
		}()
		var o outcome
		select {
		case o = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("NewSwarm + RunSharded(1) still running after 10 s: %+v", cfg)
		}
		switch {
		case !o.built:
			if !errors.Is(o.err, ErrInvalidSwarmConfig) {
				t.Fatalf("NewSwarm error %v does not wrap ErrInvalidSwarmConfig: %+v", o.err, cfg)
			}
		case o.err != nil:
			t.Fatalf("accepted config failed mid-run: %v: %+v", o.err, cfg)
		default:
			st := o.res.Stats
			if math.IsNaN(st.AbsErrSumM) || math.IsInf(st.AbsErrSumM, 0) || st.AbsErrSumM < 0 {
				t.Fatalf("absolute error sum %g: %+v", st.AbsErrSumM, cfg)
			}
			if st.RoundsCompleted > st.RoundsStarted || st.Resolved+st.SlotCollisions > st.Responses {
				t.Fatalf("inconsistent stats %s: %+v", st, cfg)
			}
		}
	})
}
