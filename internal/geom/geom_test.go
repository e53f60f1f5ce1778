package geom

import (
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func pointsClose(p, q Point, tol float64) bool { return p.Dist(q) <= tol }

func TestPointArithmetic(t *testing.T) {
	p := Point{3, 4}
	q := Point{1, -2}
	if got := p.Add(q); got != (Point{4, 2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Norm(); !closeTo(got, 5, 1e-12) {
		t.Errorf("Norm = %g", got)
	}
	if got := p.Dot(q); !closeTo(got, -5, 1e-12) {
		t.Errorf("Dot = %g", got)
	}
	if got := p.Cross(q); !closeTo(got, -10, 1e-12) {
		t.Errorf("Cross = %g", got)
	}
	if got := p.Dist(q); !closeTo(got, math.Sqrt(4+36), 1e-12) {
		t.Errorf("Dist = %g", got)
	}
}

func TestSegmentIntersect(t *testing.T) {
	a := Segment{Point{0, 0}, Point{2, 2}}
	b := Segment{Point{0, 2}, Point{2, 0}}
	pt, ok := a.Intersect(b)
	if !ok || !pointsClose(pt, Point{1, 1}, 1e-12) {
		t.Fatalf("got %v, %v", pt, ok)
	}
	// Parallel segments never intersect.
	c := Segment{Point{0, 1}, Point{2, 3}}
	if _, ok := a.Intersect(c); ok {
		t.Fatal("parallel segments intersected")
	}
	// Disjoint segments on crossing lines.
	d := Segment{Point{5, 0}, Point{5, 1}}
	if _, ok := a.Intersect(d); ok {
		t.Fatal("disjoint segments intersected")
	}
	// Endpoint touching counts for Intersect...
	e := Segment{Point{2, 2}, Point{3, 0}}
	if _, ok := a.Intersect(e); !ok {
		t.Fatal("endpoint touch not detected")
	}
	// ...but not for IntersectStrict.
	if a.IntersectStrict(e) {
		t.Fatal("endpoint touch reported as strict crossing")
	}
	if !a.IntersectStrict(b) {
		t.Fatal("proper crossing not reported as strict")
	}
}

func TestMirrorAcross(t *testing.T) {
	wall := Segment{Point{0, 0}, Point{10, 0}} // the x-axis
	if got := wall.MirrorAcross(Point{3, 4}); !pointsClose(got, Point{3, -4}, 1e-12) {
		t.Fatalf("mirror across x-axis: %v", got)
	}
	diag := Segment{Point{0, 0}, Point{1, 1}}
	if got := diag.MirrorAcross(Point{1, 0}); !pointsClose(got, Point{0, 1}, 1e-12) {
		t.Fatalf("mirror across diagonal: %v", got)
	}
	// Degenerate wall returns the point unchanged.
	deg := Segment{Point{1, 1}, Point{1, 1}}
	if got := deg.MirrorAcross(Point{5, 5}); got != (Point{5, 5}) {
		t.Fatalf("degenerate mirror: %v", got)
	}
}

func TestMirrorIsInvolutionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 5))
		wall := Segment{
			Point{r.Float64() * 10, r.Float64() * 10},
			Point{r.Float64() * 10, r.Float64() * 10},
		}
		if wall.Length() < 1e-6 {
			return true
		}
		p := Point{r.Float64() * 10, r.Float64() * 10}
		back := wall.MirrorAcross(wall.MirrorAcross(p))
		return pointsClose(back, p, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: mrand.New(mrand.NewSource(51))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRectangleValidation(t *testing.T) {
	if _, err := Rectangle(0, 5, 0.5); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := Rectangle(5, -1, 0.5); err == nil {
		t.Error("negative height accepted")
	}
	if _, err := Rectangle(5, 5, 0); err == nil {
		t.Error("zero reflectivity accepted")
	}
	if _, err := Rectangle(5, 5, 1.5); err == nil {
		t.Error("reflectivity > 1 accepted")
	}
	fp, err := Rectangle(8, 5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Walls) != 4 {
		t.Fatalf("wall count %d", len(fp.Walls))
	}
}

func TestPathsLOSOnly(t *testing.T) {
	fp, _ := Rectangle(10, 6, 0.5)
	paths, err := fp.Paths(Point{2, 3}, Point{8, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("want LOS only, got %d paths", len(paths))
	}
	p := paths[0]
	if p.Order != 0 || !closeTo(p.Length, 6, 1e-12) || p.Gain != 1 {
		t.Fatalf("LOS path %+v", p)
	}
}

func TestPathsFirstOrderRectangle(t *testing.T) {
	// Fig. 1a: a rectangular room has exactly four first-order reflections
	// (MPC1–MPC4) plus the LOS path for interior tx/rx positions.
	fp, _ := Rectangle(10, 6, 0.5)
	tx := Point{2, 3}
	rx := Point{8, 3.5}
	paths, err := fp.Paths(tx, rx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("want 1 LOS + 4 reflections, got %d", len(paths))
	}
	if paths[0].Order != 0 {
		t.Fatal("paths not sorted by length: LOS must come first")
	}
	for i := 1; i < len(paths); i++ {
		p := paths[i]
		if p.Order != 1 {
			t.Fatalf("path %d order %d", i, p.Order)
		}
		if p.Length <= paths[0].Length {
			t.Fatalf("reflection %d not longer than LOS", i)
		}
		if !closeTo(p.Gain, 0.5, 1e-12) {
			t.Fatalf("reflection gain %g, want wall reflectivity 0.5", p.Gain)
		}
		if len(p.Points) != 3 {
			t.Fatalf("reflection polyline %v", p.Points)
		}
		if paths[i].Length < paths[i-1].Length {
			t.Fatal("paths not sorted by length")
		}
	}
}

func TestPathsMirrorLengthIdentity(t *testing.T) {
	// Image-method invariant: the bounce path length equals the straight
	// distance from the mirrored transmitter to the receiver.
	fp, _ := Rectangle(12, 7, 0.7)
	tx := Point{3, 2}
	rx := Point{9, 5}
	paths, _ := fp.Paths(tx, rx, 1)
	for _, p := range paths {
		if p.Order != 1 {
			continue
		}
		var wall Wall
		for _, w := range fp.Walls {
			if w.Name == p.Walls[0] {
				wall = w
			}
		}
		img := wall.Seg.MirrorAcross(tx)
		if !closeTo(p.Length, img.Dist(rx), 1e-9) {
			t.Fatalf("wall %s: path length %g, image distance %g",
				p.Walls[0], p.Length, img.Dist(rx))
		}
	}
}

func TestPathsReciprocityProperty(t *testing.T) {
	// Swapping tx and rx must produce the same multiset of path lengths.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 9))
		fp, err := Rectangle(5+r.Float64()*10, 4+r.Float64()*8, 0.3+r.Float64()*0.6)
		if err != nil {
			return false
		}
		tx := Point{0.5 + r.Float64()*4, 0.5 + r.Float64()*3}
		rx := Point{0.5 + r.Float64()*4, 0.5 + r.Float64()*3}
		if tx.Dist(rx) < 0.1 {
			return true
		}
		fw, err1 := fp.Paths(tx, rx, 2)
		bw, err2 := fp.Paths(rx, tx, 2)
		if err1 != nil || err2 != nil || len(fw) != len(bw) {
			return false
		}
		for i := range fw {
			if !closeTo(fw[i].Length, bw[i].Length, 1e-6) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: mrand.New(mrand.NewSource(52))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPathsSecondOrderExist(t *testing.T) {
	fp, _ := Rectangle(10, 6, 0.5)
	paths, err := fp.Paths(Point{2, 3}, Point{8, 3.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var second int
	for _, p := range paths {
		if p.Order == 2 {
			second++
			if !closeTo(p.Gain, 0.25, 1e-12) {
				t.Fatalf("second-order gain %g, want 0.25", p.Gain)
			}
		}
	}
	if second == 0 {
		t.Fatal("no second-order reflections found")
	}
}

func TestPathsRejectNegativeOrder(t *testing.T) {
	fp, _ := Rectangle(10, 6, 0.5)
	if _, err := fp.Paths(Point{1, 1}, Point{2, 2}, -1); err == nil {
		t.Fatal("negative order accepted")
	}
}

func TestObstacleAttenuatesCrossingPaths(t *testing.T) {
	fp, _ := Rectangle(10, 6, 0.5)
	// A partition between tx and rx with 20 dB transmission loss.
	fp.Obstacles = append(fp.Obstacles, Obstacle{
		Seg:                Segment{Point{5, 1}, Point{5, 5}},
		TransmissionLossDB: 20,
		Name:               "partition",
	})
	tx := Point{2, 3}
	rx := Point{8, 3}
	paths, err := fp.Paths(tx, rx, 1)
	if err != nil {
		t.Fatal(err)
	}
	los := paths[0]
	if los.Order != 0 {
		t.Fatal("LOS not first")
	}
	// 20 dB power loss = factor 0.1 in amplitude.
	if !closeTo(los.Gain, 0.1, 1e-9) {
		t.Fatalf("blocked LOS gain %g, want 0.1", los.Gain)
	}
	// The east and west bounces stay at y = 3 and cross the partition once
	// (gain 0.5 · 0.1); the south and north bounces pass below/above the
	// partition span and keep the bare wall reflectivity.
	for _, p := range paths[1:] {
		var want float64
		switch p.Walls[0] {
		case "east", "west":
			want = 0.05
		case "south", "north":
			want = 0.5
		default:
			t.Fatalf("unexpected wall %q", p.Walls[0])
		}
		if !closeTo(p.Gain, want, 1e-9) {
			t.Fatalf("reflection off %s: gain %g, want %g", p.Walls[0], p.Gain, want)
		}
	}
}

func TestObstacleDoesNotBlockNonCrossingPath(t *testing.T) {
	fp, _ := Rectangle(10, 6, 0.5)
	fp.Obstacles = append(fp.Obstacles, Obstacle{
		Seg:                Segment{Point{5, 4}, Point{5, 5}},
		TransmissionLossDB: 30,
	})
	paths, _ := fp.Paths(Point{2, 1}, Point{8, 1}, 0)
	if paths[0].Gain != 1 {
		t.Fatalf("unobstructed LOS gain %g, want 1", paths[0].Gain)
	}
}

// pathsOracle is Paths as it was before the path slice was sized once and
// the wall sequence kept in one buffer: every candidate sequence is a fresh
// copy, and the paths are sorted with sort.SliceStable.
func pathsOracle(fp *FloorPlan, tx, rx Point, maxOrder int) []Path {
	out := []Path{{Points: []Point{tx, rx}, Length: tx.Dist(rx), Gain: fp.obstacleGain(Segment{tx, rx})}}
	var walk func(seq []int)
	walk = func(seq []int) {
		if len(seq) >= maxOrder {
			return
		}
		for w := range fp.Walls {
			if len(seq) > 0 && seq[len(seq)-1] == w {
				continue
			}
			next := make([]int, len(seq)+1)
			copy(next, seq)
			next[len(seq)] = w
			if p, ok := fp.tracePath(tx, rx, next); ok {
				out = append(out, p)
			}
			walk(next)
		}
	}
	walk(nil)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Length < out[j].Length })
	return out
}

// TestPathsMatchCopyingEnumeration: enumerating into one reused sequence
// buffer finds the same paths in the same order as copying every
// sequence, up to order 4, where siblings overwrite each other's last
// wall at every depth.
func TestPathsMatchCopyingEnumeration(t *testing.T) {
	fp, _ := Rectangle(10, 6, 0.5)
	fp.Obstacles = []Obstacle{{Seg: Segment{Point{5, 1}, Point{5, 4}}, TransmissionLossDB: 3}}
	for order := 0; order <= 4; order++ {
		got, err := fp.Paths(Point{2, 3}, Point{8, 3.5}, order)
		if err != nil {
			t.Fatal(err)
		}
		want := pathsOracle(fp, Point{2, 3}, Point{8, 3.5}, order)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("order %d: %d paths differ from the copying enumeration's %d", order, len(got), len(want))
		}
		if c := cap(got); c != pathBound(len(fp.Walls), order) {
			t.Fatalf("order %d: capacity %d, want the bound %d", order, c, pathBound(len(fp.Walls), order))
		}
	}
}

func TestPathBound(t *testing.T) {
	for _, c := range []struct{ walls, order, want int }{
		{4, 0, 1}, {4, 1, 5}, {4, 2, 17}, {4, 3, 53}, {1, 9, 2}, {0, 3, 1}, {100, 3, 4096}, {2, 1 << 40, 4096},
	} {
		if got := pathBound(c.walls, c.order); got != c.want {
			t.Errorf("pathBound(%d, %d) = %d, want %d", c.walls, c.order, got, c.want)
		}
	}
}
