package sim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/uwb-sim/concurrent-ranging/internal/geom"
)

// MobilityConfig parameterizes the random-waypoint walks of swarm nodes.
// Every node roams inside a disk around its home position, so shard
// ownership (decided by the home) stays valid while actual distances — and
// with them flight times and ranging geometry — change over the run.
type MobilityConfig struct {
	// RoamRadius is the maximum distance from the home position in meters.
	// 0 pins every node to its home (static deployment).
	RoamRadius float64
	// MinSpeed and MaxSpeed bound the uniform walking-speed draw in m/s.
	MinSpeed, MaxSpeed float64
	// Pause is the dwell time at each waypoint in seconds.
	Pause float64
}

// leg is one piece of a trajectory: linear motion (or dwell, when from ==
// to) over [t0, t1].
type leg struct {
	t0, t1   float64
	from, to geom.Point
}

// Track is one node's precomputed piecewise-linear trajectory over the
// simulation horizon. Tracks are built before the run from the node's own
// RNG stream and are immutable afterwards, so any shard may evaluate any
// node's position without synchronization.
type Track struct {
	legs []leg
	home geom.Point
}

// maxTrackLegs bounds one node's trajectory. A walk that needs more legs
// to cover the horizon (a speed far above the roam radius per second, or a
// vanishing pause) is refused instead of built; at 1 m/s in a 10 m roam
// disk the budget covers hours.
const maxTrackLegs = 4096

// NewTrack builds a waypoint walk covering [0, horizon] seconds. All draws
// come from rng — the node's split stream — so one node's trajectory does
// not depend on how many other nodes exist or in which order they are
// built. A zero RoamRadius (or non-positive speeds/horizon) yields a
// stationary track. A walk that needs more than 4096 legs to cover the
// horizon is refused with an error.
func NewTrack(home geom.Point, cfg MobilityConfig, rng *rand.Rand, horizon float64) (Track, error) {
	tr := Track{home: home}
	if cfg.RoamRadius <= 0 || cfg.MaxSpeed <= 0 || horizon <= 0 {
		return tr, nil
	}
	minSpeed := cfg.MinSpeed
	if minSpeed <= 0 || minSpeed > cfg.MaxSpeed {
		minSpeed = cfg.MaxSpeed
	}
	pos := home
	t := 0.0
	for t < horizon {
		if len(tr.legs) >= maxTrackLegs {
			return Track{}, fmt.Errorf("sim: waypoint walk needs more than %d legs to cover %g s", maxTrackLegs, horizon)
		}
		// Waypoint uniform in the roam disk around home.
		r := cfg.RoamRadius * math.Sqrt(rng.Float64())
		theta := 2 * math.Pi * rng.Float64()
		next := geom.Point{X: home.X + r*math.Cos(theta), Y: home.Y + r*math.Sin(theta)}
		speed := minSpeed + (cfg.MaxSpeed-minSpeed)*rng.Float64()
		dur := pos.Dist(next) / speed
		if dur > 0 {
			tr.legs = append(tr.legs, leg{t0: t, t1: t + dur, from: pos, to: next})
			t += dur
			pos = next
		}
		if cfg.Pause > 0 {
			tr.legs = append(tr.legs, leg{t0: t, t1: t + cfg.Pause, from: pos, to: pos})
			t += cfg.Pause
		}
		if dur <= 0 && cfg.Pause <= 0 {
			// Degenerate draw (waypoint == current position, no pause):
			// spend the leg dwelling so the loop always advances.
			tr.legs = append(tr.legs, leg{t0: t, t1: horizon, from: pos, to: pos})
			break
		}
	}
	return tr, nil
}

// Home returns the track's home position (the shard anchor).
func (tr *Track) Home() geom.Point { return tr.home }

// Pos evaluates the position at time t, clamping outside the built
// horizon: before the first leg the node is at its start, after the last
// at its final waypoint.
func (tr *Track) Pos(t float64) geom.Point {
	if len(tr.legs) == 0 {
		return tr.home
	}
	if t <= tr.legs[0].t0 {
		return tr.legs[0].from
	}
	for i := range tr.legs {
		lg := &tr.legs[i]
		if t > lg.t1 {
			continue
		}
		if lg.t1 <= lg.t0 {
			return lg.to
		}
		f := (t - lg.t0) / (lg.t1 - lg.t0)
		return geom.Point{
			X: lg.from.X + f*(lg.to.X-lg.from.X),
			Y: lg.from.Y + f*(lg.to.Y-lg.from.Y),
		}
	}
	return tr.legs[len(tr.legs)-1].to
}
