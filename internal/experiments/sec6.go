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

// Sec6Result reproduces the Sect. VI comparison: two responders at the
// same distance reply concurrently; their responses overlap within a
// pulse duration because the 8 ns TX quantization leaves only small
// relative offsets. The paper reports that search-and-subtract resolves
// both responses in 92.6% of the overlapping trials while the threshold
// baseline manages 48%.
type Sec6Result struct {
	// OverlappingTrials is the number of trials in which the responses
	// actually overlap (offset below one pulse duration), the population
	// both rates are computed over.
	OverlappingTrials int
	// TotalTrials is the number of rounds executed.
	TotalTrials int
	// SearchSubtractRate and ThresholdRate are the fractions of
	// overlapping trials in which each detector found both responses.
	SearchSubtractRate, ThresholdRate float64
	// MeanOffset is the mean absolute response offset among overlapping
	// trials, seconds.
	MeanOffset float64
}

// overlapDistance places both Sect. VI responders, meters from the
// initiator.
const overlapDistance = 4

// overlapRound is trial's Sect. VI hallway round: two responders at the
// same distance, slightly apart laterally, with unsynchronized clocks so
// the TX quantization leaves small relative offsets.
func overlapRound(env *Env, bank *pulse.Bank, seed uint64, trial int) (*sim.RoundResult, error) {
	init := geom.Point{X: 0.5, Y: 0.9}
	return concurrentRound(env,
		sim.NetworkConfig{Environment: channel.Hallway(), Seed: seed + uint64(trial)*6151, RandomClockPhase: true},
		init, []sim.NodeConfig{
			{ID: 0, Pos: geom.Point{X: init.X + overlapDistance, Y: init.Y}},
			{ID: 1, Pos: geom.Point{X: init.X, Y: init.Y - overlapDistance}},
		},
		sim.RoundConfig{Bank: bank})
}

// overlapExpected returns an overlap round's two true response delays and
// their offset, the responders' TX quantization difference (ground
// truth); ok is false unless they overlap within one pulse duration, the
// only trials the paper evaluates.
func overlapExpected(round *sim.RoundResult, pulseDuration float64) (expected []float64, offset float64, ok bool) {
	offset = math.Abs(round.TXQuantizationError[0] - round.TXQuantizationError[1])
	if offset > pulseDuration {
		return nil, offset, false
	}
	return []float64{refDelay, refDelay + offset}, offset, true
}

// Sec6 runs the overlap experiment over trials rounds (0 selects the
// paper's 2000).
func Sec6(env *Env, trials int, seed uint64) (*Sec6Result, error) {
	if trials == 0 {
		trials = 2000
	}
	shape, err := pulse.ForRegister(pulse.RegisterS1)
	if err != nil {
		return nil, err
	}
	bank, err := pulse.NewBank(dw1000.SampleInterval, pulse.RegisterS1)
	if err != nil {
		return nil, err
	}
	// The threshold baseline is stateless and safely shared.
	threshold := &core.ThresholdDetector{
		Shape:          shape,
		SampleInterval: dw1000.SampleInterval,
	}

	type trialOutcome struct {
		overlapping bool
		offset      float64
		ss, th      bool
	}
	outcomes, err := parallelMapWith(env, trials, detectors(env, bank, core.DetectorConfig{Upsample: 8}),
		func(dets []*core.Detector, trial int) (trialOutcome, error) {
			round, err := overlapRound(env, bank, seed, trial)
			if err != nil {
				return trialOutcome{}, err
			}
			expected, offset, ok := overlapExpected(round, shape.Duration())
			if !ok {
				return trialOutcome{}, nil
			}
			cir := round.Reception.CIR
			ssResp, err := dets[0].Detect(cir.Taps, cir.NoiseRMS)
			if err != nil {
				return trialOutcome{}, err
			}
			thResp, err := threshold.Detect(cir.Taps, cir.NoiseRMS)
			if err != nil {
				return trialOutcome{}, err
			}
			return trialOutcome{
				overlapping: true,
				offset:      offset,
				ss:          bothDetected(ssResp, expected),
				th:          bothDetected(thResp, expected),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	var ss, th dsp.Counter
	var offsets dsp.Running
	res := &Sec6Result{TotalTrials: trials}
	for _, o := range outcomes {
		if !o.overlapping {
			continue
		}
		res.OverlappingTrials++
		offsets.Add(o.offset)
		ss.Record(o.ss)
		th.Record(o.th)
	}
	res.SearchSubtractRate = ss.Rate()
	res.ThresholdRate = th.Rate()
	res.MeanOffset = offsets.Mean()
	return res, nil
}

// bothDetected reports whether two distinct detections match the two
// expected delays within ±1.5 ns.
func bothDetected(responses []core.Response, expected []float64) bool {
	const tol = 1.5e-9
	used := make([]bool, len(responses))
	for _, e := range expected {
		best, bestDist := -1, tol
		for i, r := range responses {
			if used[i] {
				continue
			}
			if d := math.Abs(r.Delay - e); d < bestDist {
				best, bestDist = i, d
			}
		}
		if best < 0 {
			return false
		}
		used[best] = true
	}
	return true
}

// Render formats the comparison.
func (r *Sec6Result) Render() string {
	t := &Table{
		Title: fmt.Sprintf("Sect. VI — overlapping responses at equal distance (%d/%d overlapping trials)",
			r.OverlappingTrials, r.TotalTrials),
		Header: []string{"detector", "both responses found"},
		Rows: [][]string{
			{"search and subtract (Sect. IV)", fmtPct(100 * r.SearchSubtractRate)},
			{"threshold-based (Falsi et al.)", fmtPct(100 * r.ThresholdRate)},
		},
	}
	return t.String() + fmt.Sprintf("mean response offset %.2f ns\n", r.MeanOffset*1e9)
}
