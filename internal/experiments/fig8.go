package experiments

import (
	"fmt"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

// Fig8Result reproduces Fig. 8: many responders spread over RPM slots,
// identified within each slot by pulse shape.
type Fig8Result struct {
	// Capacity is N_max = N_RPM · N_PS.
	Capacity int
	// Slots and Shapes restate the layout.
	Slots, Shapes int
	// Responders is the number of active responders.
	Responders int
	// IdentificationRate is the fraction of (trial, responder) pairs in
	// which the responder was found with the correct ID.
	IdentificationRate float64
	// MeanAbsError is the mean |distance error| over identified
	// responders, meters.
	MeanAbsError float64
	// PerResponder is the identification rate per responder ID.
	PerResponder []float64
	// Trials is the number of rounds executed.
	Trials int
}

// The Fig. 8 layout: 9 of the N_max = 12 responders, RPM slots sized for
// the paper's running-example range of 75 m (4 slots), and N_PS = 3.
const (
	fig8Responders = 9
	fig8MaxRange   = 75
	fig8Shapes     = 3
)

// Fig8 runs the combined RPM × pulse-shaping experiment over trials rounds
// (0 selects 50); idealTransceiver disables the 8 ns TX quantization.
func Fig8(env *Env, trials int, seed uint64, idealTransceiver bool) (*Fig8Result, error) {
	if trials == 0 {
		trials = 50
	}
	plan, err := core.NewSlotPlan(fig8MaxRange, fig8Shapes)
	if err != nil {
		return nil, err
	}
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, fig8Shapes)
	if err != nil {
		return nil, err
	}
	init := geom.Point{X: 1, Y: 0.9}
	distances := make([]float64, fig8Responders)
	for id := range distances {
		distances[id] = 2.0 + 1.6*float64(id)
	}
	responders := inLine(init, distances...)

	res := &Fig8Result{
		Capacity:     plan.Capacity(),
		Slots:        plan.NumSlots,
		Shapes:       plan.NumShapes,
		Responders:   fig8Responders,
		PerResponder: make([]float64, fig8Responders),
		Trials:       trials,
	}
	outcomes, err := parallelMapWith(env, trials, detectors(env, bank, core.DetectorConfig{}),
		func(dets []*core.Detector, trial int) ([]float64, error) {
			round, err := concurrentRound(env,
				sim.NetworkConfig{Environment: channel.Hallway(), Seed: seed + uint64(trial)*2741, RandomClockPhase: true},
				init, responders,
				sim.RoundConfig{Plan: plan, Bank: bank, DisableTXQuantization: idealTransceiver})
			if err != nil {
				return nil, err
			}
			cir := round.Reception.CIR
			responses, err := dets[0].Detect(cir.Taps, cir.NoiseRMS)
			if err != nil {
				return nil, err
			}
			return rangeErrors(plan, responses, round, distances), nil
		})
	if err != nil {
		return nil, err
	}
	perResponder := make([]dsp.Counter, fig8Responders)
	var overall dsp.Counter
	var absErr dsp.Running
	for _, errs := range outcomes {
		for id, e := range errs {
			// Identified = present with a plausible distance (within the
			// quantization-limited error budget).
			g := e < 2.5
			perResponder[id].Record(g)
			overall.Record(g)
			if g {
				absErr.Add(e)
			}
		}
	}
	for id := range perResponder {
		res.PerResponder[id] = perResponder[id].Rate()
	}
	res.IdentificationRate = overall.Rate()
	res.MeanAbsError = absErr.Mean()
	return res, nil
}

// Render formats the experiment.
func (r *Fig8Result) Render() string {
	out := fmt.Sprintf("== Fig. 8 — combined scheme: %d slots × %d shapes (N_max = %d), %d responders ==\n",
		r.Slots, r.Shapes, r.Capacity, r.Responders)
	t := &Table{Header: []string{"responder", "slot", "shape", "identified"}}
	for id, rate := range r.PerResponder {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(id),
			fmt.Sprint(id % r.Slots),
			fmt.Sprintf("s%d", id/r.Slots+1),
			fmtPct(100 * rate),
		})
	}
	out += t.String()
	out += fmt.Sprintf("overall identification %s, mean |error| %.2f m over %d trials\n",
		fmtPct(100*r.IdentificationRate), r.MeanAbsError, r.Trials)
	return out
}
