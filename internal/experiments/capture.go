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

// CaptureResult probes the working assumption behind the paper's d_TWR
// anchor: that one of the concurrently transmitted payloads — the one the
// receiver locked to — can still be decoded. With responders at graded
// distances the earliest frame dominates and decodes; with many
// equal-power responders the aggregate interference defeats it. This is
// an extension experiment (the paper demonstrates up to three responders
// and does not quantify the capture limit).
type CaptureResult struct {
	// Responders holds the evaluated responder counts.
	Responders []int
	// GradedRate is the decode success rate with responders at graded
	// distances (each ~1.6 m farther than the previous).
	GradedRate []float64
	// EqualRate is the decode success rate with all responders at the
	// same distance (worst case).
	EqualRate []float64
	// GradedSIR and EqualSIR are the mean lock SIRs in dB.
	GradedSIR, EqualSIR []float64
	// Trials per cell.
	Trials int
}

// Capture sweeps the responder count for both geometries with trials
// rounds per cell (0 selects 40).
func Capture(env *Env, trials int, seed uint64) (*CaptureResult, error) {
	if trials == 0 {
		trials = 40
	}
	counts := []int{1, 2, 3, 5, 9}
	geometries := []bool{false, true} // graded, equal
	res := &CaptureResult{Responders: counts, Trials: trials}
	model := sim.DefaultCaptureModel()
	bank, err := pulse.NewBank(dw1000.SampleInterval, pulse.RegisterS1)
	if err != nil {
		return nil, err
	}
	type trialOutcome struct {
		decoded bool
		sirDB   float64
	}
	cells := len(counts) * len(geometries)
	outcomes, err := parallelMap(env, cells*trials, func(k int) (trialOutcome, error) {
		cell, trial := k/trials, k%trials
		n, equal := counts[cell/len(geometries)], geometries[cell%len(geometries)]
		round, err := captureRound(env, bank, model, n, equal, seed+uint64(trial)*193+uint64(n))
		if err != nil {
			return trialOutcome{}, err
		}
		return trialOutcome{round.DecodeOK, round.LockSIRdB}, nil
	})
	if err != nil {
		return nil, err
	}
	for cell := 0; cell < cells; cell++ {
		var ok dsp.Counter
		var sir dsp.Running
		for _, o := range outcomes[cell*trials : (cell+1)*trials] {
			ok.Record(o.decoded)
			if !math.IsInf(o.sirDB, 0) {
				sir.Add(o.sirDB)
			}
		}
		if geometries[cell%len(geometries)] {
			res.EqualRate = append(res.EqualRate, ok.Rate())
			res.EqualSIR = append(res.EqualSIR, sir.Mean())
		} else {
			res.GradedRate = append(res.GradedRate, ok.Rate())
			res.GradedSIR = append(res.GradedSIR, sir.Mean())
		}
	}
	return res, nil
}

// captureRound runs one free-space round with n responders, either graded
// in distance (each ~1.6 m farther than the previous) or on a 5 m circle.
func captureRound(env *Env, bank *pulse.Bank, model *sim.CaptureModel, n int, equal bool, seed uint64) (*sim.RoundResult, error) {
	responders := make([]sim.NodeConfig, n)
	for i := range responders {
		pos := geom.Point{X: 3 + 1.6*float64(i), Y: 0}
		if equal {
			angle := float64(i) * 2 * math.Pi / float64(n)
			pos = geom.Point{X: 5 * math.Cos(angle), Y: 5 * math.Sin(angle)}
		}
		responders[i] = sim.NodeConfig{ID: i, Pos: pos}
	}
	return concurrentRound(env,
		sim.NetworkConfig{Environment: channel.FreeSpace(), Seed: seed, RandomClockPhase: true},
		geom.Point{}, responders,
		sim.RoundConfig{Plan: core.SingleSlot(1), Bank: bank, Capture: model})
}

// Render formats the sweep.
func (r *CaptureResult) Render() string {
	t := &Table{
		Title: fmt.Sprintf("Extension — payload capture under concurrent interference (%d trials/cell)", r.Trials),
		Header: []string{"responders", "graded decode", "graded SIR [dB]",
			"equal-power decode", "equal SIR [dB]"},
	}
	for i, n := range r.Responders {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmtPct(100 * r.GradedRate[i]),
			fmtF(r.GradedSIR[i], 1),
			fmtPct(100 * r.EqualRate[i]),
			fmtF(r.EqualSIR[i], 1),
		})
	}
	return t.String()
}
