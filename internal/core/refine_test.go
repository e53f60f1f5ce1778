package core

import (
	"math"
	"math/rand/v2"
	"testing"
)

// projectAmplitudeOracle is projectAmplitude with one Eval call per
// support sample, its form before EvalRun.
func projectAmplitudeOracle(d *Detector, residual []complex128, tmplIdx int, peakPos float64) (complex128, float64) {
	shape := d.bank.Shape(tmplIdx)
	norm := d.norms[tmplIdx]
	if norm == 0 {
		return 0, 0
	}
	halfSamples := shape.SupportHalfWidth() / d.ts
	lo := max(int(peakPos-halfSamples), 0)
	hi := min(int(peakPos+halfSamples)+1, len(residual)-1)
	var num complex128
	var den float64
	for n := lo; n <= hi; n++ {
		v := norm * shape.Eval((float64(n)-peakPos)*d.ts)
		num += residual[n] * complex(v, 0)
		den += v * v
	}
	if den == 0 {
		return 0, 0
	}
	score := (real(num)*real(num) + imag(num)*imag(num)) / den
	return num * complex(1/den, 0), score
}

// TestProjectAmplitudeMatchesEvalLoop pins the refinement's projection to
// its one-Eval-per-sample oracle bit for bit: every template of the
// 108-shape bank, at fractional and integer peak positions, inside the
// window and with the support clipped at either edge or outside it.
func TestProjectAmplitudeMatchesEvalLoop(t *testing.T) {
	d, err := NewDetector(newTestBank(t, 108), DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(27, 3))
	residual := make([]complex128, 1016)
	for i := range residual {
		residual[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for ti := range d.templates {
		for _, pos := range []float64{500, 500 + rng.Float64(), 0, 3.3, -2.5, -20, 1015, 1012.7, 1030, rng.Float64() * 1016} {
			ga, gs := d.projectAmplitude(residual, ti, pos)
			wa, ws := projectAmplitudeOracle(d, residual, ti, pos)
			if math.Float64bits(real(ga)) != math.Float64bits(real(wa)) || math.Float64bits(imag(ga)) != math.Float64bits(imag(wa)) ||
				math.Float64bits(gs) != math.Float64bits(ws) {
				t.Fatalf("template %d at %g: (%v, %v), oracle (%v, %v)", ti, pos, ga, gs, wa, ws)
			}
		}
	}
}
