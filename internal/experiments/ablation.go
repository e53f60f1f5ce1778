package experiments

import (
	"fmt"
	"math"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// AblationUpsampleResult measures the effect of the FFT up-sampling
// factor (Sect. IV step 1) on resolving overlapping responses.
type AblationUpsampleResult struct {
	// Factors are the evaluated up-sampling factors.
	Factors []int
	// SuccessRate is the both-responses-found rate per factor.
	SuccessRate []float64
	// Trials per factor.
	Trials int
}

// AblationUpsample reruns the Sect. VI overlap scenario at several
// up-sampling factors, trials rounds each (0 selects 300).
func AblationUpsample(env *Env, trials int, seed uint64) (*AblationUpsampleResult, error) {
	if trials == 0 {
		trials = 300
	}
	factors := []int{1, 2, 4, 8, 16}
	res := &AblationUpsampleResult{Factors: factors, Trials: trials}
	bank, err := pulse.NewBank(dw1000.SampleInterval, pulse.RegisterS1)
	if err != nil {
		return nil, err
	}
	shape := bank.Shape(0)
	cfgs := make([]core.DetectorConfig, len(factors))
	for i, f := range factors {
		cfgs[i].Upsample = f
	}
	type trialOutcome struct{ overlapping, both bool }
	outcomes, err := parallelMapWith(env, len(factors)*trials, detectors(env, bank, cfgs...),
		func(dets []*core.Detector, k int) (trialOutcome, error) {
			factor, trial := k/trials, k%trials
			round, err := overlapRound(env, bank, seed, trial)
			if err != nil {
				return trialOutcome{}, err
			}
			expected, _, ok := overlapExpected(round, shape.Duration())
			if !ok {
				return trialOutcome{}, nil
			}
			cir := round.Reception.CIR
			responses, err := dets[factor].Detect(cir.Taps, cir.NoiseRMS)
			if err != nil {
				return trialOutcome{}, err
			}
			return trialOutcome{overlapping: true, both: bothDetected(responses, expected)}, nil
		})
	if err != nil {
		return nil, err
	}
	for factor := range factors {
		var counter dsp.Counter
		for _, o := range outcomes[factor*trials : (factor+1)*trials] {
			if o.overlapping {
				counter.Record(o.both)
			}
		}
		res.SuccessRate = append(res.SuccessRate, counter.Rate())
	}
	return res, nil
}

// Render formats the ablation.
func (r *AblationUpsampleResult) Render() string {
	t := &Table{
		Title:  "Ablation — FFT up-sampling factor vs overlap resolution",
		Header: []string{"factor", "both found"},
	}
	for i, f := range r.Factors {
		t.Rows = append(t.Rows, []string{fmt.Sprint(f), fmtPct(100 * r.SuccessRate[i])})
	}
	return t.String()
}

// AblationQuantizationResult measures the concurrent-ranging distance
// error with and without the DW1000's 8 ns delayed-TX truncation — the
// hardware limitation Sect. III declares out of scope and expects
// next-generation transceivers to fix.
type AblationQuantizationResult struct {
	// WithQuantizationRMSE and IdealRMSE are the RMS distance errors of
	// the non-anchor responders, meters.
	WithQuantizationRMSE, IdealRMSE float64
	// Trials per variant.
	Trials int
}

// AblationQuantization compares the two transceiver models on the Fig. 4
// scenario, trials rounds each (0 selects 100).
func AblationQuantization(env *Env, trials int, seed uint64) (*AblationQuantizationResult, error) {
	if trials == 0 {
		trials = 100
	}
	res := &AblationQuantizationResult{Trials: trials}
	for _, ideal := range []bool{false, true} {
		f4, err := Fig4(env, trials, seed, ideal)
		if err != nil {
			return nil, err
		}
		var acc float64
		var n int
		for i := 1; i < len(f4.TrueDistances); i++ { // skip the TWR anchor
			e := f4.MeanDistance[i] - f4.TrueDistances[i]
			acc += e*e + f4.StdDistance[i]*f4.StdDistance[i]
			n++
		}
		rmse := math.Sqrt(acc / float64(n))
		if ideal {
			res.IdealRMSE = rmse
		} else {
			res.WithQuantizationRMSE = rmse
		}
	}
	return res, nil
}

// Render formats the ablation.
func (r *AblationQuantizationResult) Render() string {
	t := &Table{
		Title:  "Ablation — 8 ns delayed-TX truncation vs ideal transceiver",
		Header: []string{"transceiver", "RMSE of CIR-derived distances [m]"},
		Rows: [][]string{
			{"DW1000 (8 ns truncation)", fmtF(r.WithQuantizationRMSE, 3)},
			{"ideal (next-generation)", fmtF(r.IdealRMSE, 3)},
		},
	}
	return t.String()
}

// AblationThresholdResult sweeps the detection threshold factor and
// reports missed responses vs phantom detections on the Fig. 4 scenario —
// the automatic-detection trade-off of challenge I.
type AblationThresholdResult struct {
	// Factors are the threshold multipliers.
	Factors []float64
	// MissRate is the fraction of (trial, responder) pairs missed.
	MissRate []float64
	// MeanExtra is the mean number of detections beyond the three
	// responders per trial.
	MeanExtra []float64
	// Trials per factor.
	Trials int
}

// AblationThreshold runs the sweep on Fig. 4's ideal-transceiver round,
// trials rounds per factor (0 selects 60).
func AblationThreshold(env *Env, trials int, seed uint64) (*AblationThresholdResult, error) {
	if trials == 0 {
		trials = 60
	}
	factors := []float64{3, 4.5, 6, 9, 14, 20}
	res := &AblationThresholdResult{Factors: factors, Trials: trials}
	bank, err := pulse.NewBank(dw1000.SampleInterval, pulse.RegisterS1)
	if err != nil {
		return nil, err
	}
	cfgs := make([]core.DetectorConfig, len(factors))
	for i, f := range factors {
		cfgs[i].ThresholdFactor = f
	}
	n := len(fig4Distances)
	type trialOutcome struct {
		missed bool
		extra  float64
	}
	outcomes, err := parallelMapWith(env, len(factors)*trials, detectors(env, bank, cfgs...),
		func(dets []*core.Detector, k int) (trialOutcome, error) {
			factor, trial := k/trials, k%trials
			round, err := fig4Round(env, bank, seed, trial, true)
			if err != nil {
				return trialOutcome{}, err
			}
			cir := round.Reception.CIR
			responses, err := dets[factor].Detect(cir.Taps, cir.NoiseRMS)
			if err != nil {
				return trialOutcome{}, err
			}
			matched := 0
			for i := 0; i < n; i++ {
				if nearestResponse(responses, expectedDelay(round, 0, i), 5e-9) >= 0 {
					matched++
				}
			}
			return trialOutcome{missed: matched < n, extra: float64(max(len(responses)-n, 0))}, nil
		})
	if err != nil {
		return nil, err
	}
	for factor := range factors {
		var miss dsp.Counter
		var extra dsp.Running
		for _, o := range outcomes[factor*trials : (factor+1)*trials] {
			miss.Record(o.missed)
			extra.Add(o.extra)
		}
		res.MissRate = append(res.MissRate, miss.Rate())
		res.MeanExtra = append(res.MeanExtra, extra.Mean())
	}
	return res, nil
}

// Render formats the sweep.
func (r *AblationThresholdResult) Render() string {
	t := &Table{
		Title:  "Ablation — detection threshold factor (automatic mode)",
		Header: []string{"factor ×noise", "trials missing a responder", "mean extra detections"},
	}
	for i, f := range r.Factors {
		t.Rows = append(t.Rows, []string{
			fmtF(f, 1), fmtPct(100 * r.MissRate[i]), fmtF(r.MeanExtra[i], 2),
		})
	}
	return t.String()
}
