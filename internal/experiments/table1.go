package experiments

import (
	"fmt"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

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

// Table1 runs the identification-rate sweep with trials rounds per cell
// (0 selects the paper's 1000).
func Table1(env *Env, trials int, seed uint64) (*Table1Result, error) {
	if trials == 0 {
		trials = 1000
	}
	distances := []float64{6, 7, 8, 9, 10}
	shapes := []int{1, 2} // s2 and s3
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, 3)
	if err != nil {
		return nil, err
	}
	cells := len(shapes) * len(distances)
	// Automatic run-time detection (challenge I): no prior knowledge of
	// the response count; the expected-position match tolerates the
	// extra multipath detections.
	outcomes, err := parallelMapWith(env, cells*trials, detectors(env, bank, core.DetectorConfig{}),
		func(dets []*core.Detector, k int) (bool, error) {
			cell, trial := k/trials, k%trials
			shape2, di := shapes[cell/len(distances)], cell%len(distances)
			round, err := twoResponderRound(env, bank, 3, distances[di], shape2,
				seed+uint64(shape2)*1_000_003+uint64(di)*10_007+uint64(trial)*97)
			if err != nil {
				return false, err
			}
			cir := round.Reception.CIR
			responses, err := dets[0].Detect(cir.Taps, cir.NoiseRMS)
			if err != nil {
				return false, err
			}
			// Identified: the detection at responder 2's true CIR position
			// carries its template.
			j := nearestResponse(responses, expectedDelay(round, 0, shape2), 5e-9)
			return j >= 0 && responses[j].TemplateIndex == shape2, nil
		})
	if err != nil {
		return nil, err
	}
	res := &Table1Result{Distances: distances, Trials: trials}
	for cell := 0; cell < cells; cell++ {
		var counter dsp.Counter
		for _, ok := range outcomes[cell*trials : (cell+1)*trials] {
			counter.Record(ok)
		}
		if cell < len(distances) {
			res.RateS2 = append(res.RateS2, counter.Percent())
		} else {
			res.RateS3 = append(res.RateS3, counter.Percent())
		}
	}
	return res, nil
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
