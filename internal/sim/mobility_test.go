package sim

import (
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
