// Package geom provides the 2-D geometry underlying the deterministic part
// of the UWB channel model: points, wall segments, floor plans, and the
// image (mirror-source) method used to enumerate specular multipath
// reflections as in Fig. 1a of the paper.
package geom

import (
	"fmt"
	"math"
)

// Point is a position in the 2-D floor plane, in meters.
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// String formats the point with centimeter precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Segment is a directed line segment between two points.
type Segment struct {
	A, B Point
}

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

const intersectEps = 1e-12

// Intersect returns the intersection point of the two segments and true
// when they properly intersect (including endpoints). Collinear overlaps
// report false, as a wall grazing along a ray does not produce a specular
// reflection point.
func (s Segment) Intersect(o Segment) (Point, bool) {
	d1 := s.B.Sub(s.A)
	d2 := o.B.Sub(o.A)
	den := d1.Cross(d2)
	if math.Abs(den) < intersectEps {
		return Point{}, false
	}
	diff := o.A.Sub(s.A)
	t := diff.Cross(d2) / den
	u := diff.Cross(d1) / den
	if t < -intersectEps || t > 1+intersectEps || u < -intersectEps || u > 1+intersectEps {
		return Point{}, false
	}
	return s.A.Add(d1.Scale(t)), true
}

// IntersectStrict reports whether the two segments cross strictly in the
// interiors of both (no shared endpoints). Used for blocking tests so a
// ray ending exactly on a wall is not considered blocked by it.
func (s Segment) IntersectStrict(o Segment) bool {
	d1 := s.B.Sub(s.A)
	d2 := o.B.Sub(o.A)
	den := d1.Cross(d2)
	if math.Abs(den) < intersectEps {
		return false
	}
	diff := o.A.Sub(s.A)
	t := diff.Cross(d2) / den
	u := diff.Cross(d1) / den
	const inner = 1e-9
	return t > inner && t < 1-inner && u > inner && u < 1-inner
}

// MirrorAcross returns p mirrored across the infinite line through the
// segment. If the segment is degenerate (zero length), p is returned
// unchanged.
func (s Segment) MirrorAcross(p Point) Point {
	d := s.B.Sub(s.A)
	len2 := d.Dot(d)
	if len2 < intersectEps {
		return p
	}
	ap := p.Sub(s.A)
	t := ap.Dot(d) / len2
	foot := s.A.Add(d.Scale(t))
	return foot.Add(foot.Sub(p))
}
