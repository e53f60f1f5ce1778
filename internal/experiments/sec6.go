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

// Sec6Config parameterizes the overlapping-response experiment.
type Sec6Config struct {
	// Trials is the number of concurrent rounds (the paper uses 2000).
	Trials int
	// Distance places both responders (the paper uses 4 m).
	Distance float64
	// Seed drives the simulation.
	Seed uint64
}

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

// Sec6 runs the overlap experiment.
func Sec6(env *Env, cfg Sec6Config) (*Sec6Result, error) {
	if cfg.Trials == 0 {
		cfg.Trials = 2000
	}
	if cfg.Distance == 0 {
		cfg.Distance = 4
	}
	shape, err := pulse.ForRegister(pulse.RegisterS1)
	if err != nil {
		return nil, err
	}
	bank, err := pulse.NewBank(dw1000.SampleInterval, pulse.RegisterS1)
	if err != nil {
		return nil, err
	}
	// The search-and-subtract detector caches FFT plans and scratch
	// buffers, so each parallel worker gets its own instance; the
	// threshold baseline is stateless and safely shared.
	threshold := &core.ThresholdDetector{
		Shape:          shape,
		SampleInterval: dw1000.SampleInterval,
	}

	type trialOutcome struct {
		overlapping bool
		offset      float64
		ss, th      bool
	}
	newWorker := func() (*core.Detector, error) {
		det, err := core.NewDetector(bank, core.DetectorConfig{Upsample: 8})
		if err != nil {
			return nil, err
		}
		return env.instrumentDetector(det), nil
	}
	outcomes, err := parallelMapWith(env, cfg.Trials, newWorker, func(det *core.Detector, trial int) (trialOutcome, error) {
		net, err := sim.NewNetwork(sim.NetworkConfig{
			Environment:      channel.Hallway(),
			Seed:             cfg.Seed + uint64(trial)*6151,
			RandomClockPhase: true, // TX quantization offsets need unaligned clocks
		})
		if err != nil {
			return trialOutcome{}, err
		}
		env.instrumentNetwork(net)
		init, err := net.AddNode(sim.NodeConfig{ID: -1, Name: "initiator", Pos: geom.Point{X: 0.5, Y: 0.9}})
		if err != nil {
			return trialOutcome{}, err
		}
		// Both responders at the same distance, slightly apart laterally.
		r1, err := net.AddNode(sim.NodeConfig{ID: 0, Pos: geom.Point{X: 0.5 + cfg.Distance, Y: 0.9}})
		if err != nil {
			return trialOutcome{}, err
		}
		r2, err := net.AddNode(sim.NodeConfig{ID: 1, Pos: geom.Point{X: 0.5, Y: 0.9 - cfg.Distance}})
		if err != nil {
			return trialOutcome{}, err
		}
		round, err := net.RunConcurrentRound(init, []*sim.Node{r1, r2}, sim.RoundConfig{Bank: bank})
		if err != nil {
			return trialOutcome{}, err
		}
		// The realized response offset between the two equal-distance
		// responders is the TX quantization difference (ground truth).
		offset := math.Abs(round.TXQuantizationError[0] - round.TXQuantizationError[1])
		if offset > shape.Duration() {
			return trialOutcome{}, nil // the paper evaluates only actually-overlapping trials
		}
		cir := round.Reception.CIR
		refDelay := float64(dw1000.ReferenceIndex) * dw1000.SampleInterval
		expected := []float64{refDelay, refDelay + offset}
		ssResp, err := det.Detect(cir.Taps, cir.NoiseRMS)
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
	res := &Sec6Result{TotalTrials: cfg.Trials}
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
