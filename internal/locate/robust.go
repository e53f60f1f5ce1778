package locate

import (
	"fmt"
	"math"

	"github.com/uwb-sim/concurrent-ranging/internal/geom"
)

// Tukey biweight IRLS settings of SolveRobust.
const (
	// robustScale is the residual scale in meters: observations are
	// down-weighted with a Tukey biweight of cutoff 4·robustScale, i.e.
	// fully rejected once their residual exceeds 1 m — several times the
	// LOS ranging σ, far below typical NLOS biases.
	robustScale = 0.25
	// robustReweights bounds the IRLS passes.
	robustReweights = 5
)

// SolveRobust estimates the position with iteratively reweighted least
// squares using Tukey biweights, so ranges inflated by non-line-of-sight
// propagation (always positively biased) do not drag the fix the way they
// do under plain least squares. At least four observations are required —
// with only three there is no redundancy to identify an outlier. Each
// pass is a Solve with the default Config.
func SolveRobust(obs []RangeObservation) (Result, error) {
	if len(obs) < 4 {
		return Result{}, fmt.Errorf("locate: robust solve needs at least 4 ranges, got %d", len(obs))
	}
	var cfg Config
	cfg.applyDefaults()
	work := make([]RangeObservation, len(obs))
	copy(work, obs)
	res, err := Solve(work, cfg)
	if err != nil {
		return Result{}, err
	}
	for pass := 0; pass < robustReweights; pass++ {
		changed := reweight(work, obs, res.Position, robustScale)
		next, err := Solve(work, cfg)
		if err != nil {
			return Result{}, err
		}
		moved := next.Position.Dist(res.Position)
		res = next
		if !changed || moved < cfg.Tolerance {
			break
		}
	}
	return res, nil
}

// reweight updates the working observations' weights from the residuals
// at the current fix (Tukey biweight with cutoff 4·scale) and reports
// whether any weight changed materially. A floor keeps at least a token
// weight on every observation so the linear system never degenerates when
// the initial fix is poor.
func reweight(work, orig []RangeObservation, pos geom.Point, scale float64) bool {
	cutoff := 4 * scale
	changed := false
	for i := range work {
		res := math.Abs(pos.Dist(orig[i].Anchor) - orig[i].Distance)
		base := orig[i].Weight
		if base <= 0 {
			base = 1
		}
		w := base * 1e-6
		if res < cutoff {
			u := res / cutoff
			bi := (1 - u*u) * (1 - u*u)
			if v := base * bi; v > w {
				w = v
			}
		}
		if math.Abs(w-work[i].Weight) > 1e-6 {
			changed = true
		}
		work[i].Weight = w
	}
	return changed
}
