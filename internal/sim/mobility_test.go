package sim

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/geom"
)

func TestTrackStaysInRoamDisk(t *testing.T) {
	home := geom.Point{X: 100, Y: 50}
	cfg := MobilityConfig{RoamRadius: 10, MinSpeed: 0.5, MaxSpeed: 1.5, Pause: 0.2}
	tr, err := NewTrack(home, cfg, rand.New(rand.NewPCG(1, 2)), 600)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 6000; i++ {
		ts := float64(i) * 0.1
		p := tr.Pos(ts)
		if d := p.Dist(home); d > cfg.RoamRadius+1e-9 {
			t.Fatalf("t=%g: %g m from home, roam radius %g", ts, d, cfg.RoamRadius)
		}
	}
}

func TestTrackContinuityAndSpeed(t *testing.T) {
	cfg := MobilityConfig{RoamRadius: 10, MinSpeed: 0.5, MaxSpeed: 1.5}
	tr, err := NewTrack(geom.Point{}, cfg, rand.New(rand.NewPCG(3, 4)), 300)
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.01
	prev := tr.Pos(0)
	for i := 1; i <= 30000; i++ {
		p := tr.Pos(float64(i) * dt)
		if v := p.Dist(prev) / dt; v > cfg.MaxSpeed*1.01 {
			t.Fatalf("t=%g: speed %g m/s exceeds max %g", float64(i)*dt, v, cfg.MaxSpeed)
		}
		prev = p
	}
}

func TestTrackDeterministicAndClamped(t *testing.T) {
	home := geom.Point{X: 1, Y: 2}
	cfg := MobilityConfig{RoamRadius: 5, MaxSpeed: 1}
	a, err := NewTrack(home, cfg, rand.New(rand.NewPCG(9, 9)), 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTrack(home, cfg, rand.New(rand.NewPCG(9, 9)), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []float64{-1, 0, 33.3, 99.9, 100, 1e6} {
		if a.Pos(ts) != b.Pos(ts) {
			t.Fatalf("t=%g: same-seed tracks differ", ts)
		}
	}
	if a.Pos(-5) != a.Pos(0) {
		t.Error("pre-horizon position not clamped to start")
	}
	if a.Pos(1e6) != a.Pos(1e5) {
		t.Error("post-horizon position not clamped to end")
	}
	// Static configs pin the node to home.
	st, err := NewTrack(home, MobilityConfig{}, rand.New(rand.NewPCG(1, 1)), 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pos(42) != home {
		t.Error("static track moved")
	}
	if st.Home() != home {
		t.Error("home mismatch")
	}
}

// linearPos is the linear-scan reference for Track.Pos: the first leg
// whose end is at or after t holds t.
func linearPos(tr *Track, t float64) geom.Point {
	legs := append([]leg{tr.first}, tr.rest...)
	if t <= legs[0].t0 {
		return legs[0].from
	}
	for i := range legs {
		lg := &legs[i]
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
	return legs[len(legs)-1].to
}

// TestTrackPosMatchesLinearScan checks the binary search of Track.Pos
// bit for bit against the linear scan on a many-leg walk: at every leg's
// start and end and one ulp either side, before the first leg, after the
// last, and at random times. The walk is continuous, so it cannot tell
// the leg ending at t from the next one; a hand-built track with a jump,
// a zero-length leg and a repeated end time can.
func TestTrackPosMatchesLinearScan(t *testing.T) {
	const horizon = 2.0
	walk, err := NewTrack(geom.Point{X: 40, Y: -7}, MobilityConfig{RoamRadius: 2, MinSpeed: 50, MaxSpeed: 100, Pause: 1e-3},
		rand.New(rand.NewPCG(11, 12)), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if n := 1 + len(walk.rest); n < 100 {
		t.Fatalf("walk has %d legs, want a many-leg walk", n)
	}
	a, b, c := geom.Point{X: 1, Y: 1}, geom.Point{X: 3, Y: -2}, geom.Point{X: 5, Y: 5}
	tracks := map[string]Track{
		"many-leg walk": walk,
		"static":        {first: leg{from: a, to: a}},
		"one leg":       {first: leg{t0: 0, t1: 0.5, from: a, to: b}},
		// Jumps between legs, a zero-length leg and a repeated end time
		// make the choice of leg visible at the end times: at t = 1 the
		// scan answers a, while both later legs give b there.
		"repeated ends": {first: leg{t0: 0, t1: 0.5, from: a, to: b}, rest: []leg{
			{t0: 0.5, t1: 1, from: c, to: a},
			{t0: 1, t1: 1, from: a, to: b},
			{t0: 1, t1: 2, from: b, to: c},
		}},
	}
	rng := rand.New(rand.NewPCG(13, 14))
	for name, tr := range tracks {
		times := []float64{math.Inf(-1), -1, 0, horizon + 1, 1e9, math.Inf(1)}
		for _, lg := range append([]leg{tr.first}, tr.rest...) {
			for _, x := range []float64{lg.t0, lg.t1} {
				times = append(times, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
			}
		}
		for range 2000 {
			times = append(times, -0.1+(horizon+0.2)*rng.Float64())
		}
		for _, ts := range times {
			if got, want := tr.Pos(ts), linearPos(&tr, ts); got != want {
				t.Fatalf("%s: Pos(%v) = %v, linear scan %v", name, ts, got, want)
			}
		}
	}
}
