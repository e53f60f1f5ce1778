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

// Fig8Config parameterizes the combined-scheme experiment.
type Fig8Config struct {
	// Responders is the number of concurrent responders (the figure
	// shows 9 of the N_max = 12).
	Responders int
	// MaxRange sizes the RPM slots (the paper's running example uses
	// 75 m → 4 slots).
	MaxRange float64
	// Shapes is N_PS (3 in the figure).
	Shapes int
	// Trials is the number of Monte-Carlo rounds.
	Trials int
	// Seed drives the simulation.
	Seed uint64
	// IdealTransceiver disables the 8 ns TX quantization.
	IdealTransceiver bool
}

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

// Fig8 runs the combined RPM × pulse-shaping experiment.
func Fig8(env *Env, cfg Fig8Config) (*Fig8Result, error) {
	if cfg.Responders == 0 {
		cfg.Responders = 9
	}
	if cfg.MaxRange == 0 {
		cfg.MaxRange = 75
	}
	if cfg.Shapes == 0 {
		cfg.Shapes = 3
	}
	if cfg.Trials == 0 {
		cfg.Trials = 50
	}
	plan, err := core.NewSlotPlan(cfg.MaxRange, cfg.Shapes)
	if err != nil {
		return nil, err
	}
	if cfg.Responders > plan.Capacity() {
		return nil, fmt.Errorf("experiments: %d responders exceed capacity %d",
			cfg.Responders, plan.Capacity())
	}
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, cfg.Shapes)
	if err != nil {
		return nil, err
	}
	// Per-worker detectors: a Detector's cached FFT plans and scratch
	// buffers are not safe for concurrent use. The resolver is stateless.
	resolver := &core.Resolver{Plan: plan}

	res := &Fig8Result{
		Capacity:     plan.Capacity(),
		Slots:        plan.NumSlots,
		Shapes:       plan.NumShapes,
		Responders:   cfg.Responders,
		PerResponder: make([]float64, cfg.Responders),
		Trials:       cfg.Trials,
	}
	type trialOutcome struct {
		good []bool
		errs []float64
	}
	newWorker := func() (*core.Detector, error) {
		det, err := core.NewDetector(bank, core.DetectorConfig{})
		if err != nil {
			return nil, err
		}
		return env.instrumentDetector(det), nil
	}
	outcomes, err := parallelMapWith(env, cfg.Trials, newWorker, func(det *core.Detector, trial int) (trialOutcome, error) {
		net, err := sim.NewNetwork(sim.NetworkConfig{
			Environment:      channel.Hallway(),
			Seed:             cfg.Seed + uint64(trial)*2741,
			RandomClockPhase: true,
		})
		if err != nil {
			return trialOutcome{}, err
		}
		env.instrumentNetwork(net)
		init, err := net.AddNode(sim.NodeConfig{ID: -1, Name: "initiator", Pos: geom.Point{X: 1, Y: 0.9}})
		if err != nil {
			return trialOutcome{}, err
		}
		var resps []*sim.Node
		truth := make(map[int]float64, cfg.Responders)
		for id := 0; id < cfg.Responders; id++ {
			d := 2.0 + 1.6*float64(id)
			node, err := net.AddNode(sim.NodeConfig{ID: id, Pos: geom.Point{X: 1 + d, Y: 0.9}})
			if err != nil {
				return trialOutcome{}, err
			}
			resps = append(resps, node)
			truth[id] = d
		}
		round, err := net.RunConcurrentRound(init, resps, sim.RoundConfig{
			Plan:                  plan,
			Bank:                  bank,
			DisableTXQuantization: cfg.IdealTransceiver,
		})
		if err != nil {
			return trialOutcome{}, err
		}
		cir := round.Reception.CIR
		responses, err := det.Detect(cir.Taps, cir.NoiseRMS)
		if err != nil {
			return trialOutcome{}, err
		}
		out := trialOutcome{
			good: make([]bool, cfg.Responders),
			errs: make([]float64, cfg.Responders),
		}
		ms, err := resolver.Resolve(responses, round.DecodedID, round.TWRDistance())
		if err != nil {
			// A failed resolution counts as a miss for every responder.
			return out, nil
		}
		byID := make(map[int]core.Measurement, len(ms))
		for _, m := range ms {
			byID[m.ID] = m
		}
		for id := 0; id < cfg.Responders; id++ {
			m, ok := byID[id]
			// Identified = present with a plausible distance (within the
			// quantization-limited error budget).
			if ok && math.Abs(m.Distance-truth[id]) < 2.5 {
				out.good[id] = true
				out.errs[id] = math.Abs(m.Distance - truth[id])
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	perResponder := make([]dsp.Counter, cfg.Responders)
	var overall dsp.Counter
	var absErr dsp.Running
	for _, o := range outcomes {
		for id := 0; id < cfg.Responders; id++ {
			g := o.good[id]
			perResponder[id].Record(g)
			overall.Record(g)
			if g {
				absErr.Add(o.errs[id])
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
