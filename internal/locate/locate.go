// Package locate implements anchor-based position estimation on top of
// concurrent ranging — the application the paper names as future work
// (Sect. IX): a mobile node ranges to all anchors with a single
// concurrent-ranging round and solves for its position.
//
// The solver is iterative Gauss–Newton least squares over the range
// residuals, seeded by a linearized closed-form estimate.
package locate

import (
	"fmt"
	"math"

	"github.com/uwb-sim/concurrent-ranging/internal/geom"
)

// RangeObservation is one measured distance to a known anchor position.
type RangeObservation struct {
	// Anchor is the anchor's known position.
	Anchor geom.Point
	// Distance is the measured range in meters.
	Distance float64
	// Weight scales the observation's influence (1 by default; use
	// smaller values for less trusted ranges). Non-positive means 1.
	Weight float64
}

// Result is a position fix.
type Result struct {
	// Position is the estimated node position.
	Position geom.Point
	// Residual is the RMS range residual at the solution, meters.
	Residual float64
	// Iterations is the number of Gauss-Newton steps taken, at most
	// Config.MaxIterations.
	Iterations int
}

// Config tunes the solver.
type Config struct {
	// MaxIterations bounds the Gauss-Newton refinement (default 50). A
	// solve that reaches it without converging returns its last iterate,
	// with Iterations = MaxIterations and no error.
	MaxIterations int
	// Tolerance stops iteration when the position update is smaller than
	// this (meters; default 1e-6).
	Tolerance float64
}

func (c *Config) applyDefaults() {
	if c.MaxIterations == 0 {
		c.MaxIterations = 50
	}
	if c.Tolerance == 0 {
		c.Tolerance = 1e-6
	}
}

// Solve estimates the 2-D position from at least three range observations
// to non-collinear anchors.
func Solve(obs []RangeObservation, cfg Config) (Result, error) {
	if len(obs) < 3 {
		return Result{}, fmt.Errorf("locate: need at least 3 ranges, got %d", len(obs))
	}
	cfg.applyDefaults()
	pos, err := linearSeed(obs)
	if err != nil {
		return Result{}, err
	}
	steps := 0
	for steps < cfg.MaxIterations {
		step, ok := gaussNewtonStep(obs, pos)
		if !ok {
			return Result{}, fmt.Errorf("locate: singular geometry (collinear anchors?)")
		}
		pos = pos.Add(step)
		steps++
		if step.Norm() < cfg.Tolerance {
			break
		}
	}
	return Result{
		Position:   pos,
		Residual:   rmsResidual(obs, pos),
		Iterations: steps,
	}, nil
}

// linearSeed solves the linearized system obtained by subtracting the
// first anchor's range equation from the others:
//
//	2(a_i − a_0)·p = |a_i|² − |a_0|² + d_0² − d_i²
func linearSeed(obs []RangeObservation) (geom.Point, error) {
	a0 := obs[0].Anchor
	d0 := obs[0].Distance
	// Normal equations for the (n-1)×2 system.
	var axx, axy, ayy, bx, by float64
	for _, o := range obs[1:] {
		rx := 2 * (o.Anchor.X - a0.X)
		ry := 2 * (o.Anchor.Y - a0.Y)
		rhs := o.Anchor.Dot(o.Anchor) - a0.Dot(a0) + d0*d0 - o.Distance*o.Distance
		w := o.Weight
		if w <= 0 {
			w = 1
		}
		axx += w * rx * rx
		axy += w * rx * ry
		ayy += w * ry * ry
		bx += w * rx * rhs
		by += w * ry * rhs
	}
	det := axx*ayy - axy*axy
	if math.Abs(det) < 1e-12 {
		return geom.Point{}, fmt.Errorf("locate: degenerate anchor geometry")
	}
	return geom.Point{
		X: (ayy*bx - axy*by) / det,
		Y: (axx*by - axy*bx) / det,
	}, nil
}

// gaussNewtonStep computes one weighted Gauss-Newton update at pos.
func gaussNewtonStep(obs []RangeObservation, pos geom.Point) (geom.Point, bool) {
	var jxx, jxy, jyy, gx, gy float64
	for _, o := range obs {
		diff := pos.Sub(o.Anchor)
		dist := diff.Norm()
		if dist < 1e-9 {
			continue // on top of an anchor: no gradient information
		}
		w := o.Weight
		if w <= 0 {
			w = 1
		}
		// Jacobian row of r = |p-a| - d is diff/dist.
		jx := diff.X / dist
		jy := diff.Y / dist
		res := dist - o.Distance
		jxx += w * jx * jx
		jxy += w * jx * jy
		jyy += w * jy * jy
		gx += w * jx * res
		gy += w * jy * res
	}
	det := jxx*jyy - jxy*jxy
	if math.Abs(det) < 1e-12 {
		return geom.Point{}, false
	}
	return geom.Point{
		X: -(jyy*gx - jxy*gy) / det,
		Y: -(jxx*gy - jxy*gx) / det,
	}, true
}

func rmsResidual(obs []RangeObservation, pos geom.Point) float64 {
	var acc float64
	for _, o := range obs {
		r := pos.Dist(o.Anchor) - o.Distance
		acc += r * r
	}
	return math.Sqrt(acc / float64(len(obs)))
}
