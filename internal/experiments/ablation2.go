package experiments

import (
	"math"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

// AblationRefinementResult compares the literal paper estimator (peak on
// the up-sampled grid, steps 3–5 of Sect. IV) against the sub-sample
// joint (τ, α) refinement this implementation adds before subtracting.
type AblationRefinementResult struct {
	// GridPhantoms and RefinedPhantoms are the mean numbers of spurious
	// detections per automatic-mode run.
	GridPhantoms, RefinedPhantoms float64
	// GridDelayRMSE and RefinedDelayRMSE are the response-delay errors in
	// picoseconds (single clean response at high SNR).
	GridDelayRMSE, RefinedDelayRMSE float64
	// Trials per variant.
	Trials int
}

// AblationRefinement measures both metrics on a clean two-responder
// setup. The receiver aligns the first (anchor) response to its reference
// index, so only the second response exposes sub-sample behavior: the
// DW1000's 8 ns TX quantization places it at a uniformly distributed
// fractional position.
func AblationRefinement(env *Env, trials int, seed uint64) (*AblationRefinementResult, error) {
	if trials == 0 {
		trials = 150
	}
	bank, err := pulse.NewBank(dw1000.SampleInterval, pulse.RegisterS1)
	if err != nil {
		return nil, err
	}
	res := &AblationRefinementResult{Trials: trials}
	type trialOutcome struct {
		phantoms float64
		sqErr    float64 // NaN when the second response was missed
	}
	init := geom.Point{}
	responders := inLine(init, 3, 7)
	// Variant 0 is the grid-limited estimator, variant 1 the refined one.
	outcomes, err := parallelMapWith(env, 2*trials,
		detectors(env, bank, core.DetectorConfig{DisableRefinement: true}, core.DetectorConfig{}),
		func(dets []*core.Detector, k int) (trialOutcome, error) {
			variant, trial := k/trials, k%trials
			round, err := concurrentRound(env,
				sim.NetworkConfig{
					Environment:      channel.FreeSpace(), // isolate the estimator
					Seed:             seed + uint64(trial)*947,
					RandomClockPhase: true,
				},
				init, responders, sim.RoundConfig{Bank: bank})
			if err != nil {
				return trialOutcome{}, err
			}
			cir := round.Reception.CIR
			responses, err := dets[variant].Detect(cir.Taps, cir.NoiseRMS)
			if err != nil {
				return trialOutcome{}, err
			}
			out := trialOutcome{phantoms: float64(max(len(responses)-2, 0)), sqErr: math.NaN()}
			expected := expectedDelay(round, 0, 1)
			if j := nearestResponse(responses, expected, 2e-9); j >= 0 {
				d := math.Abs(responses[j].Delay - expected)
				out.sqErr = d * d
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	for variant := 0; variant < 2; variant++ {
		var phantoms, delayErr dsp.Running
		for _, o := range outcomes[variant*trials : (variant+1)*trials] {
			phantoms.Add(o.phantoms)
			if !math.IsNaN(o.sqErr) {
				delayErr.Add(o.sqErr)
			}
		}
		rmse := math.Sqrt(delayErr.Mean()) * 1e12
		if variant == 0 {
			res.GridPhantoms, res.GridDelayRMSE = phantoms.Mean(), rmse
		} else {
			res.RefinedPhantoms, res.RefinedDelayRMSE = phantoms.Mean(), rmse
		}
	}
	return res, nil
}

// Render formats the comparison.
func (r *AblationRefinementResult) Render() string {
	t := &Table{
		Title:  "Ablation — grid-limited (literal Sect. IV) vs sub-sample refined estimator",
		Header: []string{"estimator", "phantom detections/run", "delay RMSE [ps]"},
		Rows: [][]string{
			{"up-sampled grid (paper steps 3-5)", fmtF(r.GridPhantoms, 2), fmtF(r.GridDelayRMSE, 0)},
			{"joint (τ,α) refinement", fmtF(r.RefinedPhantoms, 2), fmtF(r.RefinedDelayRMSE, 0)},
		},
	}
	return t.String()
}

// AblationSlotPlanResult compares the paper's slot sizing (N_RPM =
// ⌊δ_max·c/r_max⌋) against the round-trip-safe variant when responder
// distances spread across the full nominal range.
type AblationSlotPlanResult struct {
	// Spreads are the evaluated distance spreads in meters.
	Spreads []float64
	// PaperRate and SafeRate are correct-identification rates per spread.
	PaperRate, SafeRate []float64
	// Trials per cell.
	Trials int
}

// AblationSlotPlan sweeps the responder spread for both plans, trials
// rounds per cell (0 selects 30). Six responders are placed from 2 m out
// to 2 m + spread; with the paper plan (δ·c/2 ≈ 38 m of tolerated spread
// at r_max = 75 m) wide deployments start leaking across slot boundaries
// earlier than with the safe plan.
func AblationSlotPlan(env *Env, trials int, seed uint64) (*AblationSlotPlanResult, error) {
	if trials == 0 {
		trials = 30
	}
	spreads := []float64{5, 15, 25}
	res := &AblationSlotPlanResult{Spreads: spreads, Trials: trials}
	const maxRange, responders = 75.0, 6
	paperPlan, err := core.NewSlotPlan(maxRange, 3)
	if err != nil {
		return nil, err
	}
	safePlan, err := core.NewSafeSlotPlan(maxRange, 3)
	if err != nil {
		return nil, err
	}
	plans := []core.SlotPlan{paperPlan, safePlan}
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, 3)
	if err != nil {
		return nil, err
	}
	init := geom.Point{X: 0.5, Y: 0.9}
	cells := len(spreads) * len(plans)
	outcomes, err := parallelMapWith(env, cells*trials, detectors(env, bank, core.DetectorConfig{}),
		func(dets []*core.Detector, k int) ([]float64, error) {
			cell, trial := k/trials, k%trials
			spread, p := spreads[cell/len(plans)], cell%len(plans)
			distances := make([]float64, responders)
			for id := range distances {
				distances[id] = 2 + spread*float64(id)/float64(responders-1)
			}
			round, err := concurrentRound(env,
				sim.NetworkConfig{
					Environment:      channel.Hallway(),
					Seed:             seed + uint64(p) + uint64(trial)*3571,
					RandomClockPhase: true,
				},
				init, inLine(init, distances...),
				sim.RoundConfig{Plan: plans[p], Bank: bank, DisableTXQuantization: true})
			if err != nil {
				return nil, err
			}
			cir := round.Reception.CIR
			responses, err := dets[0].Detect(cir.Taps, cir.NoiseRMS)
			if err != nil {
				return nil, err
			}
			return rangeErrors(plans[p], responses, round, distances), nil
		})
	if err != nil {
		return nil, err
	}
	for cell := 0; cell < cells; cell++ {
		var counter dsp.Counter
		for _, errs := range outcomes[cell*trials : (cell+1)*trials] {
			for _, e := range errs {
				counter.Record(e < 1)
			}
		}
		if cell%len(plans) == 0 {
			res.PaperRate = append(res.PaperRate, counter.Rate())
		} else {
			res.SafeRate = append(res.SafeRate, counter.Rate())
		}
	}
	return res, nil
}

// Render formats the sweep.
func (r *AblationSlotPlanResult) Render() string {
	t := &Table{
		Title:  "Ablation — paper slot sizing vs round-trip-safe sizing (r_max = 75 m, 6 responders)",
		Header: []string{"distance spread [m]", "paper plan (4 slots)", "safe plan (2 slots)"},
	}
	for i, s := range r.Spreads {
		t.Rows = append(t.Rows, []string{
			fmtF(s, 0), fmtPct(100 * r.PaperRate[i]), fmtPct(100 * r.SafeRate[i]),
		})
	}
	return t.String()
}
