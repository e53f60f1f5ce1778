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
// up-sampling factors.
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
	m := newMeter(env, len(factors)*trials)
	defer m.finish()
	for _, factor := range factors {
		det, err := core.NewDetector(bank, core.DetectorConfig{Upsample: factor})
		if err != nil {
			return nil, err
		}
		env.instrumentDetector(det)
		var counter dsp.Counter
		for trial := 0; trial < trials; trial++ {
			err := m.timeTrial(func() error {
				round, err := overlapRound(env, 4, seed+uint64(trial)*6151)
				if err != nil {
					return err
				}
				offset := math.Abs(round.TXQuantizationError[0] - round.TXQuantizationError[1])
				if offset > shape.Duration() {
					return nil
				}
				cir := round.Reception.CIR
				refDelay := float64(dw1000.ReferenceIndex) * dw1000.SampleInterval
				responses, err := det.Detect(cir.Taps, cir.NoiseRMS)
				if err != nil {
					return err
				}
				counter.Record(bothDetected(responses, []float64{refDelay, refDelay + offset}))
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		res.SuccessRate = append(res.SuccessRate, counter.Rate())
	}
	return res, nil
}

// overlapRound builds the two-equal-distance-responders round of Sect. VI.
func overlapRound(env *Env, distance float64, seed uint64) (*sim.RoundResult, error) {
	net, err := sim.NewNetwork(sim.NetworkConfig{
		Environment:      channel.Hallway(),
		Seed:             seed,
		RandomClockPhase: true,
	})
	if err != nil {
		return nil, err
	}
	env.instrumentNetwork(net)
	init, err := net.AddNode(sim.NodeConfig{ID: -1, Name: "initiator", Pos: geom.Point{X: 0.5, Y: 0.9}})
	if err != nil {
		return nil, err
	}
	r1, err := net.AddNode(sim.NodeConfig{ID: 0, Pos: geom.Point{X: 0.5 + distance, Y: 0.9}})
	if err != nil {
		return nil, err
	}
	r2, err := net.AddNode(sim.NodeConfig{ID: 1, Pos: geom.Point{X: 0.5, Y: 0.9 - distance}})
	if err != nil {
		return nil, err
	}
	bank, err := pulse.NewBank(dw1000.SampleInterval, pulse.RegisterS1)
	if err != nil {
		return nil, err
	}
	return net.RunConcurrentRound(init, []*sim.Node{r1, r2}, sim.RoundConfig{Bank: bank})
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
// scenario.
func AblationQuantization(env *Env, trials int, seed uint64) (*AblationQuantizationResult, error) {
	if trials == 0 {
		trials = 100
	}
	res := &AblationQuantizationResult{Trials: trials}
	for _, ideal := range []bool{false, true} {
		f4, err := Fig4(env, Fig4Config{Trials: trials, Seed: seed, IdealTransceiver: ideal})
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

// AblationThreshold runs the sweep.
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
	distances := []float64{3, 6, 10}
	for _, factor := range factors {
		det, err := core.NewDetector(bank, core.DetectorConfig{ThresholdFactor: factor})
		if err != nil {
			return nil, err
		}
		env.instrumentDetector(det)
		var miss dsp.Counter
		var extra dsp.Running
		for trial := 0; trial < trials; trial++ {
			net, err := sim.NewNetwork(sim.NetworkConfig{
				Environment:      channel.Hallway(),
				Seed:             seed + uint64(trial)*7919,
				RandomClockPhase: true,
			})
			if err != nil {
				return nil, err
			}
			env.instrumentNetwork(net)
			init, err := net.AddNode(sim.NodeConfig{ID: -1, Name: "initiator", Pos: geom.Point{X: 2, Y: 0.9}})
			if err != nil {
				return nil, err
			}
			var resps []*sim.Node
			for i, d := range distances {
				node, err := net.AddNode(sim.NodeConfig{ID: i, Pos: geom.Point{X: 2 + d, Y: 0.9}})
				if err != nil {
					return nil, err
				}
				resps = append(resps, node)
			}
			round, err := net.RunConcurrentRound(init, resps, sim.RoundConfig{
				Bank: bank, DisableTXQuantization: true,
			})
			if err != nil {
				return nil, err
			}
			cir := round.Reception.CIR
			responses, err := det.Detect(cir.Taps, cir.NoiseRMS)
			if err != nil {
				return nil, err
			}
			refDelay := float64(dw1000.ReferenceIndex) * dw1000.SampleInterval
			matched := 0
			for i, d := range distances {
				expected := refDelay + 2*(d-distances[0])/channel.SpeedOfLight
				if _, ok := nearestResponse(responses, expected); ok {
					matched++
				} else {
					_ = i
				}
			}
			miss.Record(matched < len(distances))
			extra.Add(float64(max(len(responses)-len(distances), 0)))
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
