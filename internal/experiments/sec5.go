package experiments

import (
	"fmt"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

// Sec5Result reproduces the "no impact on ranging performance" experiment
// of Sect. V: the standard deviation of the SS-TWR distance error for the
// pulse shapes s₁, s₂, s₃. The paper reports σ₁ = 0.0228 m, σ₂ = 0.0221 m
// and σ₃ = 0.0283 m — all shapes range with the same few-centimeter
// precision.
type Sec5Result struct {
	// Registers are the evaluated TC_PGDELAY values.
	Registers []byte
	// Sigma is the per-shape standard deviation of the ranging error in
	// meters.
	Sigma []float64
	// MeanError is the per-shape mean error (bias) in meters.
	MeanError []float64
	// Trials is the per-shape trial count.
	Trials int
}

// sec5Distance separates the two nodes of Sect. V, meters.
const sec5Distance = 3

// Sec5 runs the precision comparison: trials SS-TWR operations per shape
// (0 selects the paper's 5000). Each shape's exchanges share one
// network's RNG stream, so they run in sequence.
func Sec5(env *Env, trials int, seed uint64) (*Sec5Result, error) {
	if trials == 0 {
		trials = 5000
	}
	regs := []byte{pulse.RegisterS1, pulse.RegisterS2, pulse.RegisterS3}
	res := &Sec5Result{Registers: regs, Trials: trials}
	m := newMeter(env, len(regs)*trials)
	defer m.finish()
	for i, reg := range regs {
		net, nodes, err := network(env,
			sim.NetworkConfig{Environment: channel.Office(), Seed: seed + uint64(i)*104729},
			sim.NodeConfig{ID: -1, Name: "init", Pos: geom.Point{X: 1, Y: 1}},
			sim.NodeConfig{ID: 0, Name: "resp", Pos: geom.Point{X: 1 + sec5Distance, Y: 1}})
		if err != nil {
			return nil, err
		}
		bank, err := pulse.NewBank(dw1000.SampleInterval, reg)
		if err != nil {
			return nil, err
		}
		var stats dsp.Running
		for trial := 0; trial < trials; trial++ {
			err := m.timeTrial(func() error {
				d, err := net.RunTWRExchange(nodes[0], nodes[1], 290e-6, bank)
				if err != nil {
					return err
				}
				stats.Add(d - sec5Distance)
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		res.Sigma = append(res.Sigma, stats.StdDev())
		res.MeanError = append(res.MeanError, stats.Mean())
	}
	return res, nil
}

// Render formats the result.
func (r *Sec5Result) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("Sect. V — SS-TWR precision per pulse shape (%d trials each)", r.Trials),
		Header: []string{"shape", "register", "sigma [m]", "mean error [m]"},
	}
	for i, reg := range r.Registers {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("s%d", i+1),
			fmt.Sprintf("0x%02X", reg),
			fmtF(r.Sigma[i], 4),
			fmtF(r.MeanError[i], 4),
		})
	}
	return t.String()
}
