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

// Capture sweeps the responder count for both geometries.
func Capture(env *Env, trials int, seed uint64) (*CaptureResult, error) {
	if trials == 0 {
		trials = 40
	}
	counts := []int{1, 2, 3, 5, 9}
	res := &CaptureResult{Responders: counts, Trials: trials}
	model := sim.DefaultCaptureModel()
	m := newMeter(env, len(counts)*2*trials)
	defer m.finish()
	for _, n := range counts {
		for _, equal := range []bool{false, true} {
			var ok dsp.Counter
			var sir dsp.Running
			for trial := 0; trial < trials; trial++ {
				err := m.timeTrial(func() error {
					round, err := captureRound(env, n, equal, model, seed+uint64(trial)*193+uint64(n))
					if err != nil {
						return err
					}
					ok.Record(round.DecodeOK)
					if !math.IsInf(round.LockSIRdB, 0) {
						sir.Add(round.LockSIRdB)
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
			}
			if equal {
				res.EqualRate = append(res.EqualRate, ok.Rate())
				res.EqualSIR = append(res.EqualSIR, sir.Mean())
			} else {
				res.GradedRate = append(res.GradedRate, ok.Rate())
				res.GradedSIR = append(res.GradedSIR, sir.Mean())
			}
		}
	}
	return res, nil
}

func captureRound(env *Env, n int, equal bool, model *sim.CaptureModel, seed uint64) (*sim.RoundResult, error) {
	net, err := sim.NewNetwork(sim.NetworkConfig{
		Environment:      channel.FreeSpace(),
		Seed:             seed,
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
	var resps []*sim.Node
	for i := 0; i < n; i++ {
		var pos geom.Point
		if equal {
			angle := float64(i) * 2 * math.Pi / float64(n)
			pos = geom.Point{X: 5 * math.Cos(angle), Y: 5 * math.Sin(angle)}
		} else {
			pos = geom.Point{X: 3 + 1.6*float64(i), Y: 0}
		}
		node, err := net.AddNode(sim.NodeConfig{ID: i, Pos: pos})
		if err != nil {
			return nil, err
		}
		resps = append(resps, node)
	}
	plan := core.SingleSlot(1)
	bank, err := pulse.NewBank(dw1000.SampleInterval, pulse.RegisterS1)
	if err != nil {
		return nil, err
	}
	return net.RunConcurrentRound(init, resps, sim.RoundConfig{
		Plan: plan, Bank: bank, Capture: model,
	})
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
