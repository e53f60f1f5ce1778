package experiments

import (
	"fmt"
	"math"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
)

// Table1Config parameterizes the identification-rate experiment.
type Table1Config struct {
	// Distances are the d₂ values; empty selects the paper's {6..10} m.
	Distances []float64
	// Trials per cell (the paper uses 1000).
	Trials int
	// Seed drives the simulation.
	Seed uint64
}

// Table1Result reproduces Table I: the percentage of correctly identified
// pulse shapes for responder 2 at d₂ ∈ {6..10} m using s₂ or s₃, with
// responder 1 fixed at 3 m using s₁. The paper reports ≥ 99.2% everywhere.
type Table1Result struct {
	// Distances are the d₂ values in meters.
	Distances []float64
	// RateS2 and RateS3 are identification percentages per distance.
	RateS2, RateS3 []float64
	// Trials is the per-cell trial count.
	Trials int
}

// Table1 runs the identification-rate sweep.
func Table1(env *Env, cfg Table1Config) (*Table1Result, error) {
	if len(cfg.Distances) == 0 {
		cfg.Distances = []float64{6, 7, 8, 9, 10}
	}
	if cfg.Trials == 0 {
		cfg.Trials = 1000
	}
	res := &Table1Result{Distances: cfg.Distances, Trials: cfg.Trials}
	for _, shape2 := range []int{1, 2} { // s2 and s3
		for di, d2 := range cfg.Distances {
			d2, shape2 := d2, shape2
			outcomes, err := parallelMap(env, cfg.Trials, func(trial int) (bool, error) {
				seed := cfg.Seed + uint64(shape2)*1_000_003 +
					uint64(di)*10_007 + uint64(trial)*97
				return identifyTrial(env, d2, shape2, seed)
			})
			if err != nil {
				return nil, err
			}
			var counter dsp.Counter
			for _, ok := range outcomes {
				counter.Record(ok)
			}
			switch shape2 {
			case 1:
				res.RateS2 = append(res.RateS2, counter.Percent())
			case 2:
				res.RateS3 = append(res.RateS3, counter.Percent())
			}
		}
	}
	return res, nil
}

// identifyTrial runs one concurrent round with responder 1 at 3 m (s₁)
// and responder 2 at d₂ using bank shape shape2, and reports whether the
// response detected at responder 2's true CIR position carries the
// correct template index.
func identifyTrial(env *Env, d2 float64, shape2 int, seed uint64) (bool, error) {
	// Automatic run-time detection (challenge I): no prior knowledge of
	// the response count; the expected-position match below tolerates the
	// extra multipath detections.
	out, err := twoResponderRound(env, 3, d2, 0, shape2, 3, 0, seed, channel.Hallway())
	if err != nil {
		return false, err
	}
	// Responder 2's expected CIR delay: the anchor (responder 1) sits at
	// the reference index; responder 2 is 2·(d₂−3)/c later, shifted by
	// the realized TX quantization difference (ground truth).
	quantDiff := out.round.TXQuantizationError[shape2] - out.round.TXQuantizationError[0]
	expected := float64(dw1000.ReferenceIndex)*dw1000.SampleInterval +
		2*(d2-3)/channel.SpeedOfLight - quantDiff
	shape, found := identifiedShapeAt(out, expected)
	return found && shape == shape2, nil
}

// identifiedShapeAt returns the template index of the detected response
// nearest the expected delay (within half a pulse duration), if any.
func identifiedShapeAt(out *twoResponderOutcome, expected float64) (int, bool) {
	const tol = 5e-9
	best, bestDist := -1, math.Inf(1)
	for _, r := range out.responses {
		d := math.Abs(r.Delay - expected)
		if d < bestDist {
			best, bestDist = r.TemplateIndex, d
		}
	}
	if best < 0 || bestDist > tol {
		return 0, false
	}
	return best, true
}

// Render formats the table like the paper's Table I.
func (r *Table1Result) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("Table I — pulse shapes identified correctly (%d trials/cell)", r.Trials),
		Header: append([]string{"d2 [m]"}, formatDistances(r.Distances)...),
	}
	row2 := []string{"s2(t) (0xC8) [%]"}
	row3 := []string{"s3(t) (0xE6) [%]"}
	for i := range r.Distances {
		row2 = append(row2, fmtF(r.RateS2[i], 1))
		row3 = append(row3, fmtF(r.RateS3[i], 1))
	}
	t.Rows = [][]string{row2, row3}
	return t.String()
}

func formatDistances(ds []float64) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmtF(d, 0)
	}
	return out
}
