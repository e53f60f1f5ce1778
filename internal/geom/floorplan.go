package geom

import (
	"fmt"
	"math"
	"slices"
)

// Wall is a reflecting surface in the floor plan.
type Wall struct {
	// Seg is the wall geometry.
	Seg Segment
	// Reflectivity is the amplitude reflection coefficient in (0, 1].
	Reflectivity float64
	// Name labels the wall in traces and errors (optional).
	Name string
}

// Obstacle is a surface that attenuates rays passing through it (e.g. a
// cabinet or an interior partition), used to model attenuated-LOS and NLOS
// situations (the paper's Sect. VII motivation and future-work item).
type Obstacle struct {
	// Seg is the obstacle geometry.
	Seg Segment
	// TransmissionLossDB is the power loss a ray suffers when crossing, dB.
	TransmissionLossDB float64
	// Name labels the obstacle (optional).
	Name string
}

// FloorPlan is a set of reflecting walls and attenuating obstacles.
type FloorPlan struct {
	Walls     []Wall
	Obstacles []Obstacle
}

// Rectangle builds the paper's canonical environment (Fig. 1a): a
// rectangular room spanning (0,0)–(width,height) whose four walls share a
// single amplitude reflectivity.
func Rectangle(width, height, reflectivity float64) (*FloorPlan, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("geom: rectangle %gx%g must have positive dimensions", width, height)
	}
	if reflectivity <= 0 || reflectivity > 1 {
		return nil, fmt.Errorf("geom: reflectivity %g outside (0, 1]", reflectivity)
	}
	c := [4]Point{{0, 0}, {width, 0}, {width, height}, {0, height}}
	names := [4]string{"south", "east", "north", "west"}
	fp := &FloorPlan{Walls: make([]Wall, 4)}
	for i := range fp.Walls {
		fp.Walls[i] = Wall{
			Seg:          Segment{c[i], c[(i+1)%4]},
			Reflectivity: reflectivity,
			Name:         names[i],
		}
	}
	return fp, nil
}

// Path is one propagation path from a transmitter to a receiver: the LOS
// ray (Order 0) or a specular reflection (Order = number of wall bounces).
type Path struct {
	// Points is the polyline tx → bounce(s) → rx.
	Points []Point
	// Length is the total geometric path length in meters.
	Length float64
	// Gain is the product of the amplitude reflection coefficients of the
	// bounced walls and the transmission factors of crossed obstacles
	// (1 for an unobstructed LOS path). It excludes free-space path loss,
	// which depends on carrier frequency and is applied by the channel.
	Gain float64
	// Order is the number of specular bounces (0 = line of sight).
	Order int
	// Walls names the bounced walls, in order.
	Walls []string
}

// Paths enumerates all propagation paths between tx and rx up to the given
// reflection order using the image method: for each wall sequence the
// transmitter is mirrored across the walls in turn, and the straight ray
// from the deepest image to the receiver is unfolded back into a bounce
// polyline. Paths whose unfolded rays miss a wall segment are discarded.
// Obstacle crossings multiply the gain by the corresponding transmission
// factor. Results are sorted by increasing length (the LOS path first
// whenever it exists).
func (fp *FloorPlan) Paths(tx, rx Point, maxOrder int) ([]Path, error) {
	if maxOrder < 0 {
		return nil, fmt.Errorf("geom: negative reflection order %d", maxOrder)
	}
	out := make([]Path, 0, pathBound(len(fp.Walls), maxOrder))
	// Order 0: direct path.
	los := Path{
		Points: []Point{tx, rx},
		Length: tx.Dist(rx),
		Gain:   fp.obstacleGain(Segment{tx, rx}),
		Order:  0,
	}
	out = append(out, los)
	seq := make([]int, 0, maxOrder)
	fp.enumerate(tx, rx, maxOrder, seq, &out)
	slices.SortStableFunc(out, func(a, b Path) int {
		switch {
		case a.Length < b.Length:
			return -1
		case b.Length < a.Length:
			return 1
		}
		return 0
	})
	return out, nil
}

// pathBound returns the number of wall sequences of 0 to maxOrder bounces
// with no wall twice in a row, 1 + w + w(w−1) + w(w−1)² + …: the most
// paths Paths can find among w walls. Past 4096 it returns 4096, and the
// path slice grows as it fills.
func pathBound(w, maxOrder int) int {
	const most = 4096
	n, level := 1, w
	for order := 1; order <= maxOrder && n < most && level > 0; order++ {
		n += level
		level = min(level*max(w-1, 0), most)
	}
	return min(n, most)
}

// enumerate recursively extends the wall-index sequence seq and emits every
// valid specular path of length 1..maxOrder. Every level appends into
// seq's one backing array (capacity maxOrder): a sequence is traced and
// its extensions enumerated before its last wall is overwritten.
func (fp *FloorPlan) enumerate(tx, rx Point, maxOrder int, seq []int, out *[]Path) {
	if len(seq) >= maxOrder {
		return
	}
	for w := range fp.Walls {
		if len(seq) > 0 && seq[len(seq)-1] == w {
			continue // consecutive bounces off the same wall are impossible
		}
		next := append(seq, w)
		if p, ok := fp.tracePath(tx, rx, next); ok {
			*out = append(*out, p)
		}
		fp.enumerate(tx, rx, maxOrder, next, out)
	}
}

// tracePath validates the wall sequence via the image method and, when the
// unfolded ray hits every wall segment, returns the realized path.
func (fp *FloorPlan) tracePath(tx, rx Point, seq []int) (Path, bool) {
	// Mirror the transmitter through the wall sequence.
	images := make([]Point, len(seq)+1)
	images[0] = tx
	for i, w := range seq {
		images[i+1] = fp.Walls[w].Seg.MirrorAcross(images[i])
	}
	// Unfold from the receiver back to the transmitter.
	pts := make([]Point, len(seq)+2)
	pts[len(pts)-1] = rx
	target := rx
	for i := len(seq) - 1; i >= 0; i-- {
		wall := fp.Walls[seq[i]]
		hit, ok := Segment{images[i+1], target}.Intersect(wall.Seg)
		if !ok {
			return Path{}, false
		}
		pts[i+1] = hit
		target = hit
	}
	pts[0] = tx

	p := Path{
		Points: pts,
		Order:  len(seq),
		Gain:   1,
		Walls:  make([]string, len(seq)),
	}
	for i, w := range seq {
		p.Gain *= fp.Walls[w].Reflectivity
		p.Walls[i] = fp.Walls[w].Name
	}
	for i := 0; i+1 < len(pts); i++ {
		leg := Segment{pts[i], pts[i+1]}
		if leg.Length() < 1e-9 {
			return Path{}, false // degenerate bounce (tx or rx on the wall)
		}
		p.Length += leg.Length()
		p.Gain *= fp.obstacleGain(leg)
	}
	return p, true
}

// obstacleGain returns the product of amplitude transmission factors for
// every obstacle the ray crosses.
func (fp *FloorPlan) obstacleGain(ray Segment) float64 {
	gain := 1.0
	for _, ob := range fp.Obstacles {
		if ray.IntersectStrict(ob.Seg) {
			gain *= math.Pow(10, -ob.TransmissionLossDB/20)
		}
	}
	return gain
}
