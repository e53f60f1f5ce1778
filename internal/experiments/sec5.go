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

// Sec5Config parameterizes the ranging-precision experiment.
type Sec5Config struct {
	// Trials is the number of SS-TWR operations per shape (the paper
	// uses 5000).
	Trials int
	// Distance separates the two nodes (the paper uses 3 m).
	Distance float64
	// Seed drives the simulation.
	Seed uint64
}

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

// Sec5 runs the precision comparison.
func Sec5(env *Env, cfg Sec5Config) (*Sec5Result, error) {
	if cfg.Trials == 0 {
		cfg.Trials = 5000
	}
	if cfg.Distance == 0 {
		cfg.Distance = 3
	}
	regs := []byte{pulse.RegisterS1, pulse.RegisterS2, pulse.RegisterS3}
	res := &Sec5Result{Registers: regs, Trials: cfg.Trials}
	m := newMeter(env, len(regs)*cfg.Trials)
	defer m.finish()
	for i, reg := range regs {
		net, err := sim.NewNetwork(sim.NetworkConfig{
			Environment: channel.Office(),
			Seed:        cfg.Seed + uint64(i)*104729,
		})
		if err != nil {
			return nil, err
		}
		env.instrumentNetwork(net)
		a, err := net.AddNode(sim.NodeConfig{ID: -1, Name: "init", Pos: geom.Point{X: 1, Y: 1}})
		if err != nil {
			return nil, err
		}
		b, err := net.AddNode(sim.NodeConfig{ID: 0, Name: "resp",
			Pos: geom.Point{X: 1 + cfg.Distance, Y: 1}})
		if err != nil {
			return nil, err
		}
		bank, err := pulse.NewBank(dw1000.SampleInterval, reg)
		if err != nil {
			return nil, err
		}
		var stats dsp.Running
		for trial := 0; trial < cfg.Trials; trial++ {
			err := m.timeTrial(func() error {
				d, err := net.RunTWRExchange(a, b, 290e-6, bank)
				if err != nil {
					return err
				}
				stats.Add(d - cfg.Distance)
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
