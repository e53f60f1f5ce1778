package locate

import (
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/uwb-sim/concurrent-ranging/internal/geom"
)

func obsFor(truth geom.Point, anchors []geom.Point, noise float64, rng *rand.Rand) []RangeObservation {
	out := make([]RangeObservation, len(anchors))
	for i, a := range anchors {
		d := truth.Dist(a)
		if noise > 0 {
			d += rng.NormFloat64() * noise
		}
		out[i] = RangeObservation{Anchor: a, Distance: d}
	}
	return out
}

var squareAnchors = []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 8}, {X: 0, Y: 8}}

func TestSolveExactRanges(t *testing.T) {
	truth := geom.Point{X: 3.2, Y: 5.7}
	res, err := Solve(obsFor(truth, squareAnchors, 0, nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Position.Dist(truth) > 1e-6 {
		t.Fatalf("position %v, want %v", res.Position, truth)
	}
	if res.Residual > 1e-6 {
		t.Fatalf("residual %g", res.Residual)
	}
}

func TestSolveNoisyRanges(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	truth := geom.Point{X: 6.1, Y: 2.4}
	var worst float64
	for trial := 0; trial < 50; trial++ {
		res, err := Solve(obsFor(truth, squareAnchors, 0.03, rng), Config{})
		if err != nil {
			t.Fatal(err)
		}
		worst = math.Max(worst, res.Position.Dist(truth))
	}
	// 3 cm range noise with 4 anchors → position errors of a few cm.
	if worst > 0.15 {
		t.Fatalf("worst position error %g m", worst)
	}
}

func TestSolveThreeAnchorsMinimum(t *testing.T) {
	truth := geom.Point{X: 2, Y: 3}
	res, err := Solve(obsFor(truth, squareAnchors[:3], 0, nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Position.Dist(truth) > 1e-6 {
		t.Fatalf("position %v", res.Position)
	}
	if _, err := Solve(obsFor(truth, squareAnchors[:2], 0, nil), Config{}); err == nil {
		t.Fatal("two anchors accepted")
	}
}

func TestSolveCollinearAnchorsRejected(t *testing.T) {
	line := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 10, Y: 0}}
	_, err := Solve(obsFor(geom.Point{X: 3, Y: 4}, line, 0, nil), Config{})
	if err == nil {
		t.Fatal("collinear anchors accepted")
	}
}

func TestSolveWeightsDownweightBadRange(t *testing.T) {
	truth := geom.Point{X: 5, Y: 4}
	obs := obsFor(truth, squareAnchors, 0, nil)
	// Corrupt one range badly; with a tiny weight the fix stays accurate.
	obs = append(obs, RangeObservation{Anchor: geom.Point{X: 5, Y: 0}, Distance: 12, Weight: 1e-6})
	res, err := Solve(obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Position.Dist(truth) > 0.01 {
		t.Fatalf("down-weighted outlier still moved the fix: %v", res.Position)
	}
	// The same outlier at full weight visibly degrades the fix.
	obs[len(obs)-1].Weight = 1
	res2, err := Solve(obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Position.Dist(truth) < res.Position.Dist(truth) {
		t.Fatal("full-weight outlier should hurt more")
	}
}

func TestSolveRecoversRandomPositionsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		truth := geom.Point{X: rng.Float64()*8 + 1, Y: rng.Float64()*6 + 1}
		res, err := Solve(obsFor(truth, squareAnchors, 0, nil), Config{})
		return err == nil && res.Position.Dist(truth) < 1e-5
	}
	cfg := &quick.Config{MaxCount: 60, Rand: mrand.New(mrand.NewSource(60))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSolveConfigDefaults(t *testing.T) {
	truth := geom.Point{X: 4, Y: 4}
	res, err := Solve(obsFor(truth, squareAnchors, 0, nil), Config{MaxIterations: 1, Tolerance: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations %d, want 1", res.Iterations)
	}
}

// TestSolveStopsAtIterationCap: a solve whose tolerance it can never
// meet runs exactly MaxIterations steps, reports that many, and returns
// its last iterate without an error; one that converges reports the
// steps it took, the last of them the one below the tolerance.
func TestSolveStopsAtIterationCap(t *testing.T) {
	truth := geom.Point{X: 4, Y: 4}
	obs := obsFor(truth, squareAnchors, 0.05, rand.New(rand.NewPCG(93, 94)))
	for _, limit := range []int{1, 2, 7, 50} {
		res, err := Solve(obs, Config{MaxIterations: limit, Tolerance: -1})
		if err != nil {
			t.Fatalf("cap %d: %v", limit, err)
		}
		if res.Iterations != limit {
			t.Fatalf("cap %d: %d iterations reported", limit, res.Iterations)
		}
		if d := res.Position.Dist(truth); d > 0.2 {
			t.Fatalf("cap %d: last iterate %v is %g m from the truth", limit, res.Position, d)
		}
	}
	// Stepping by hand: the step that converges counts.
	pos, err := linearSeed(obs)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for {
		step, _ := gaussNewtonStep(obs, pos)
		pos = pos.Add(step)
		want++
		if step.Norm() < 1e-6 {
			break
		}
	}
	res, err := Solve(obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != want || res.Position != pos {
		t.Fatalf("converged solve: %d iterations at %v, want %d at %v", res.Iterations, res.Position, want, pos)
	}
}

func TestSolveRobustRejectsNLOSOutlier(t *testing.T) {
	truth := geom.Point{X: 4, Y: 3}
	obs := obsFor(truth, squareAnchors, 0.02, rand.New(rand.NewPCG(95, 96)))
	// One NLOS range, inflated by 3 m (positively biased, as reflections
	// always lengthen the path).
	obs = append(obs, RangeObservation{
		Anchor:   geom.Point{X: 5, Y: 8},
		Distance: truth.Dist(geom.Point{X: 5, Y: 8}) + 3,
	})
	plain, err := Solve(obs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	robust, err := SolveRobust(obs, RobustConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if robust.Position.Dist(truth) > 0.15 {
		t.Fatalf("robust fix error %g m", robust.Position.Dist(truth))
	}
	if robust.Position.Dist(truth) >= plain.Position.Dist(truth) {
		t.Fatalf("robust (%g) not better than plain (%g)",
			robust.Position.Dist(truth), plain.Position.Dist(truth))
	}
}

func TestSolveRobustCleanDataMatchesPlain(t *testing.T) {
	truth := geom.Point{X: 6, Y: 5}
	obs := obsFor(truth, squareAnchors, 0, nil)
	robust, err := SolveRobust(obs, RobustConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if robust.Position.Dist(truth) > 1e-5 {
		t.Fatalf("clean-data robust fix error %g", robust.Position.Dist(truth))
	}
}

func TestSolveRobustRequiresRedundancy(t *testing.T) {
	truth := geom.Point{X: 2, Y: 2}
	obs := obsFor(truth, squareAnchors[:3], 0, nil)
	if _, err := SolveRobust(obs, RobustConfig{}); err == nil {
		t.Fatal("three ranges accepted for robust solve")
	}
}
