package experiments

import (
	"fmt"
	"math"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

// twoResponderRound is the hallway round of Fig. 6 and Table I:
// responder 1 at d1 transmitting s₁, responder 2 at d2 with bank shape
// shape2. In the single-slot plan a responder's ID is its shape index.
func twoResponderRound(env *Env, bank *pulse.Bank, d1, d2 float64, shape2 int, seed uint64) (*sim.RoundResult, error) {
	init := geom.Point{X: 0.5, Y: 0.9}
	return concurrentRound(env, sim.NetworkConfig{Environment: channel.Hallway(), Seed: seed},
		init, []sim.NodeConfig{
			{ID: 0, Pos: geom.Point{X: init.X + d1, Y: init.Y}},
			{ID: shape2, Pos: geom.Point{X: init.X + d2, Y: init.Y}},
		},
		sim.RoundConfig{Plan: core.SingleSlot(bank.Len()), Bank: bank})
}

// Fig6Result reproduces Fig. 6: two responders at 4 m (shape s₁) and 10 m
// (shape s₃); the CIR shows the differently shaped pulses and each
// template's matched-filter output peaks strongest on its own shape.
type Fig6Result struct {
	// CIR is the normalized CIR magnitude.
	CIR []float64
	// MatchedFilters holds the normalized |y_i| per template (s₁..s₃).
	MatchedFilters [][]float64
	// Identified maps each detected response (by arrival order) to the
	// identified template index; the expected value is {0, 2}.
	Identified []int
	// Delays are the detected response delays in nanoseconds.
	Delays []float64
}

// Fig6 runs the pulse-shape identification illustration.
func Fig6(env *Env, seed uint64) (*Fig6Result, error) {
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, 3)
	if err != nil {
		return nil, err
	}
	round, err := twoResponderRound(env, bank, 4, 10, 2, seed)
	if err != nil {
		return nil, err
	}
	det, err := core.NewDetector(bank, core.DetectorConfig{})
	if err != nil {
		return nil, err
	}
	env.instrumentDetector(det)
	cir := round.Reception.CIR
	responses, err := det.Detect(cir.Taps, cir.NoiseRMS)
	if err != nil {
		return nil, err
	}
	mag := cir.Magnitude()
	dsp.ScaleReal(mag, 1/math.Max(mag[dsp.ArgMax(mag)], 1e-30))
	res := &Fig6Result{CIR: mag}
	mfs, _, err := det.MatchedFilterOutputs(cir.Taps)
	if err != nil {
		return nil, err
	}
	var peak float64
	for _, mf := range mfs {
		peak = math.Max(peak, mf[dsp.ArgMax(mf)])
	}
	for _, mf := range mfs {
		dsp.ScaleReal(mf, 1/peak)
		res.MatchedFilters = append(res.MatchedFilters, mf)
	}
	// Pick the detections at the two responders' true CIR positions (the
	// automatic run also reports multipath peaks, which the combined
	// scheme of Sect. VIII — not this illustration — disambiguates).
	for _, id := range []int{0, 2} {
		expected := expectedDelay(round, 0, id)
		j := nearestResponse(responses, expected, 5e-9)
		if j < 0 {
			return nil, fmt.Errorf("experiments: no response at expected position %.1f ns", expected*1e9)
		}
		res.Identified = append(res.Identified, responses[j].TemplateIndex)
		res.Delays = append(res.Delays, responses[j].Delay*1e9)
	}
	return res, nil
}

// Render formats the experiment.
func (r *Fig6Result) Render() string {
	out := "== Fig. 6 — pulse shapes in the CIR (resp1: s1 @ 4 m, resp2: s3 @ 10 m) ==\n"
	cir := Series{Y: r.CIR[:120]}
	out += fmt.Sprintf("CIR |%s|\n", cir.Sparkline(96))
	for i, mf := range r.MatchedFilters {
		s := Series{Y: mf[:120*4]}
		out += fmt.Sprintf("y%d  |%s|\n", i+1, s.Sparkline(96))
	}
	for i, tmpl := range r.Identified {
		out += fmt.Sprintf("response %d at %.1f ns identified as s%d\n", i+1, r.Delays[i], tmpl+1)
	}
	return out
}
