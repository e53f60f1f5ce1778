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

// twoResponderRound runs one concurrent round with two responders at the
// given distances, transmitting with the given bank shape indexes. The
// detector bank holds nps default shapes.
type twoResponderOutcome struct {
	round     *sim.RoundResult
	det       *core.Detector
	responses []core.Response
}

func twoResponderRound(env *Env, d1, d2 float64, shape1, shape2, nps, maxResponses int, seed uint64, environment *channel.Environment) (*twoResponderOutcome, error) {
	net, err := sim.NewNetwork(sim.NetworkConfig{Environment: environment, Seed: seed})
	if err != nil {
		return nil, err
	}
	env.instrumentNetwork(net)
	init, err := net.AddNode(sim.NodeConfig{ID: -1, Name: "initiator", Pos: geom.Point{X: 0.5, Y: 0.9}})
	if err != nil {
		return nil, err
	}
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, nps)
	if err != nil {
		return nil, err
	}
	// IDs encode the shape directly in the single-slot plan: ID = shape.
	r1, err := net.AddNode(sim.NodeConfig{ID: shape1, Name: "resp1", Pos: geom.Point{X: 0.5 + d1, Y: 0.9}})
	if err != nil {
		return nil, err
	}
	r2, err := net.AddNode(sim.NodeConfig{ID: shape2, Name: "resp2", Pos: geom.Point{X: 0.5 + d2, Y: 0.9}})
	if err != nil {
		return nil, err
	}
	round, err := net.RunConcurrentRound(init, []*sim.Node{r1, r2}, sim.RoundConfig{
		Plan: core.SingleSlot(nps),
		Bank: bank,
	})
	if err != nil {
		return nil, err
	}
	det, err := core.NewDetector(bank, core.DetectorConfig{MaxResponses: maxResponses})
	if err != nil {
		return nil, err
	}
	env.instrumentDetector(det)
	responses, err := det.Detect(round.Reception.CIR.Taps, round.Reception.CIR.NoiseRMS)
	if err != nil {
		return nil, err
	}
	return &twoResponderOutcome{round: round, det: det, responses: responses}, nil
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
	out, err := twoResponderRound(env, 4, 10, 0, 2, 3, 0, seed, channel.Hallway())
	if err != nil {
		return nil, err
	}
	cir := out.round.Reception.CIR
	mag := cir.Magnitude()
	dsp.ScaleReal(mag, 1/math.Max(mag[dsp.ArgMax(mag)], 1e-30))
	res := &Fig6Result{CIR: mag}
	mfs, _, err := out.det.MatchedFilterOutputs(cir.Taps)
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
	refDelay := float64(dw1000.ReferenceIndex) * dw1000.SampleInterval
	quantDiff := out.round.TXQuantizationError[2] - out.round.TXQuantizationError[0]
	for _, expected := range []float64{
		refDelay,
		refDelay + 2*(10.0-4.0)/channel.SpeedOfLight - quantDiff,
	} {
		best, bestDist := -1, math.Inf(1)
		for i, r := range out.responses {
			if d := math.Abs(r.Delay - expected); d < bestDist {
				best, bestDist = i, d
			}
		}
		if best < 0 || bestDist > 5e-9 {
			return nil, fmt.Errorf("experiments: no response at expected position %.1f ns", expected*1e9)
		}
		res.Identified = append(res.Identified, out.responses[best].TemplateIndex)
		res.Delays = append(res.Delays, out.responses[best].Delay*1e9)
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
