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
	for _, grid := range []bool{true, false} {
		det, err := core.NewDetector(bank, core.DetectorConfig{DisableRefinement: grid})
		if err != nil {
			return nil, err
		}
		env.instrumentDetector(det)
		var phantoms dsp.Running
		var delayErr dsp.Running
		for trial := 0; trial < trials; trial++ {
			net, err := sim.NewNetwork(sim.NetworkConfig{
				Environment:      channel.FreeSpace(), // isolate the estimator
				Seed:             seed + uint64(trial)*947,
				RandomClockPhase: true,
			})
			if err != nil {
				return nil, err
			}
			env.instrumentNetwork(net)
			init, err := net.AddNode(sim.NodeConfig{ID: -1, Name: "init", Pos: geom.Point{X: 0, Y: 0}})
			if err != nil {
				return nil, err
			}
			r1, err := net.AddNode(sim.NodeConfig{ID: 0, Pos: geom.Point{X: 3, Y: 0}})
			if err != nil {
				return nil, err
			}
			r2, err := net.AddNode(sim.NodeConfig{ID: 1, Pos: geom.Point{X: 7, Y: 0}})
			if err != nil {
				return nil, err
			}
			round, err := net.RunConcurrentRound(init, []*sim.Node{r1, r2},
				sim.RoundConfig{Bank: bank})
			if err != nil {
				return nil, err
			}
			cir := round.Reception.CIR
			responses, err := det.Detect(cir.Taps, cir.NoiseRMS)
			if err != nil {
				return nil, err
			}
			phantoms.Add(float64(max(len(responses)-2, 0)))
			// Ground-truth position of the second response: the doubled
			// distance difference plus the realized quantization offsets.
			quantDiff := round.TXQuantizationError[1] - round.TXQuantizationError[0]
			expected := float64(dw1000.ReferenceIndex)*dw1000.SampleInterval +
				2*(7.0-3.0)/channel.SpeedOfLight - quantDiff
			best := math.Inf(1)
			for _, r := range responses {
				if d := math.Abs(r.Delay - expected); d < best {
					best = d
				}
			}
			if best < 2e-9 {
				delayErr.Add(best * best)
			}
		}
		rmse := math.Sqrt(delayErr.Mean()) * 1e12
		if grid {
			res.GridPhantoms = phantoms.Mean()
			res.GridDelayRMSE = rmse
		} else {
			res.RefinedPhantoms = phantoms.Mean()
			res.RefinedDelayRMSE = rmse
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

// AblationSlotPlan sweeps the responder spread for both plans. Six
// responders are placed from 2 m out to 2 m + spread; with the paper plan
// (δ·c/2 ≈ 38 m of tolerated spread at r_max = 75 m) wide deployments
// start leaking across slot boundaries earlier than with the safe plan.
func AblationSlotPlan(env *Env, trials int, seed uint64) (*AblationSlotPlanResult, error) {
	if trials == 0 {
		trials = 30
	}
	spreads := []float64{5, 15, 25}
	res := &AblationSlotPlanResult{Spreads: spreads, Trials: trials}
	const maxRange = 75.0
	paperPlan, err := core.NewSlotPlan(maxRange, 3)
	if err != nil {
		return nil, err
	}
	safePlan, err := core.NewSafeSlotPlan(maxRange, 3)
	if err != nil {
		return nil, err
	}
	for _, spread := range spreads {
		pr, err := slotPlanTrial(env, paperPlan, spread, trials, seed)
		if err != nil {
			return nil, err
		}
		sr, err := slotPlanTrial(env, safePlan, spread, trials, seed+1)
		if err != nil {
			return nil, err
		}
		res.PaperRate = append(res.PaperRate, pr)
		res.SafeRate = append(res.SafeRate, sr)
	}
	return res, nil
}

func slotPlanTrial(env *Env, plan core.SlotPlan, spread float64, trials int, seed uint64) (float64, error) {
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, plan.NumShapes)
	if err != nil {
		return 0, err
	}
	det, err := core.NewDetector(bank, core.DetectorConfig{})
	if err != nil {
		return 0, err
	}
	env.instrumentDetector(det)
	resolver := &core.Resolver{Plan: plan}
	const responders = 6
	var counter dsp.Counter
	for trial := 0; trial < trials; trial++ {
		net, err := sim.NewNetwork(sim.NetworkConfig{
			Environment:      channel.Hallway(),
			Seed:             seed + uint64(trial)*3571,
			RandomClockPhase: true,
		})
		if err != nil {
			return 0, err
		}
		env.instrumentNetwork(net)
		init, err := net.AddNode(sim.NodeConfig{ID: -1, Name: "init", Pos: geom.Point{X: 0.5, Y: 0.9}})
		if err != nil {
			return 0, err
		}
		var resps []*sim.Node
		truth := make(map[int]float64, responders)
		for id := 0; id < responders; id++ {
			d := 2 + spread*float64(id)/float64(responders-1)
			node, err := net.AddNode(sim.NodeConfig{ID: id, Pos: geom.Point{X: 0.5 + d, Y: 0.9}})
			if err != nil {
				return 0, err
			}
			resps = append(resps, node)
			truth[id] = d
		}
		round, err := net.RunConcurrentRound(init, resps, sim.RoundConfig{
			Plan: plan, Bank: bank, DisableTXQuantization: true,
		})
		if err != nil {
			return 0, err
		}
		responses, err := det.Detect(round.Reception.CIR.Taps, round.Reception.CIR.NoiseRMS)
		if err != nil {
			return 0, err
		}
		ms, err := resolver.Resolve(responses, round.DecodedID, round.TWRDistance())
		if err != nil {
			for id := 0; id < responders; id++ {
				counter.Record(false)
			}
			continue
		}
		byID := make(map[int]core.Measurement, len(ms))
		for _, m := range ms {
			byID[m.ID] = m
		}
		for id := 0; id < responders; id++ {
			m, ok := byID[id]
			counter.Record(ok && math.Abs(m.Distance-truth[id]) < 1)
		}
	}
	return counter.Rate(), nil
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
