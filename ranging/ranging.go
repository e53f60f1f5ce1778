// Package ranging is the public API of the concurrent-ranging library: a
// faithful, simulation-backed implementation of "Concurrent Ranging with
// Ultra-Wideband Radios: From Experimental Evidence to a Practical
// Solution" (Großwindhager et al., ICDCS 2018).
//
// A Scenario places an initiator and responders in a propagation
// environment; building it yields a Session whose Run executes one
// concurrent-ranging round — a single INIT broadcast answered by all
// responders simultaneously — and returns one distance measurement per
// responder, each attributed to its responder ID through the paper's
// pulse-shaping and response-position-modulation scheme.
//
// Minimal use:
//
//	sc := ranging.NewScenario(ranging.Config{Environment: "hallway", Seed: 1})
//	sc.SetInitiator(2, 1.2)
//	sc.AddResponder(0, 5, 1.2)
//	sc.AddResponder(1, 8, 1.2)
//	sc.AddResponder(2, 12, 1.2)
//	session, err := sc.Build()
//	// handle err
//	result, err := session.Run()
//	// handle err
//	for _, m := range result.Measurements {
//	    fmt.Printf("responder %d: %.2f m\n", m.ResponderID, m.Distance)
//	}
package ranging

import (
	"fmt"

	"github.com/uwb-sim/concurrent-ranging/internal/airtime"
	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

// Environments selectable in Config.
const (
	EnvFreeSpace  = "free-space"
	EnvHallway    = "hallway"
	EnvOffice     = "office"
	EnvIndustrial = "industrial"
)

// Config describes a deployment.
type Config struct {
	// Environment is one of the Env… preset names. Empty selects the
	// office preset.
	Environment string
	// Seed makes the simulation deterministic; equal seeds reproduce
	// bit-identical runs.
	Seed uint64
	// MaxRange enables response position modulation (Sect. VII): the CIR
	// is divided into slots sized for this communication range in meters.
	// Zero disables RPM (single slot); a negative or non-finite range is
	// rejected.
	MaxRange float64
	// NumShapes is the number of pulse shapes used for responder
	// identification (Sect. V). Zero or one selects anonymous ranging
	// with the default pulse; a negative count is rejected.
	NumShapes int
	// ResponseDelay overrides Δ_RESP (seconds). Zero selects the paper's
	// 290 µs; a non-finite delay is rejected.
	ResponseDelay float64
	// IdealTransceiver disables the DW1000's 8 ns delayed-TX truncation,
	// modeling the next-generation hardware the paper anticipates
	// (Sect. III). Keep false for faithful DW1000 behavior.
	IdealTransceiver bool
	// ClockOffsetPPM, when non-zero, draws each node's crystal offset
	// uniformly from ±this many ppm. Zero keeps ideal crystals; a
	// non-finite or negative bound, or one of 1e6 ppm or more (a clock
	// that could stop), is rejected.
	ClockOffsetPPM float64
	// DriftCompensation corrects the SS-TWR anchor distance with the
	// initiator's carrier-frequency-offset estimate of the decoded
	// responder's clock rate, removing the c·Δ_RESP·e/2 crystal-offset
	// bias. Meaningful together with ClockOffsetPPM.
	DriftCompensation bool
	// ModelDecodeFailures enables the payload capture model: with many
	// responders at comparable power the decoded payload can be lost to
	// interference, in which case Run returns ErrDecodeFailed. Off by
	// default (the paper's working assumption).
	ModelDecodeFailures bool
	// Detector overrides the response-detection settings; the zero value
	// uses the defaults of Sect. IV (4× up-sampling, automatic stop at
	// 6× the noise floor).
	Detector DetectorOptions
	// Obstacles adds attenuating surfaces to the environment, for
	// studying attenuated-LOS and NLOS situations (the paper's stated
	// future work).
	Obstacles []Obstacle
}

// Obstacle is a wall-like surface that attenuates rays crossing it.
type Obstacle struct {
	// X1, Y1, X2, Y2 are the segment endpoints in meters.
	X1, Y1, X2, Y2 float64
	// LossDB is the power loss per crossing in dB.
	LossDB float64
}

// DetectorOptions exposes the search-and-subtract knobs.
type DetectorOptions struct {
	// Upsample is the FFT up-sampling factor (default 4).
	Upsample int
	// MaxResponses caps detection; 0 = automatic (recommended).
	MaxResponses int
	// ThresholdFactor is the stop threshold in noise-RMS multiples
	// (default 6).
	ThresholdFactor float64
	// Mode selects the detector search path: core.ModeAuto (default)
	// filters the up-sampled CIR once and updates every template's
	// output after each extraction on banks of fewer than eight shapes,
	// and keeps the up-sampled residual exact and searches it every round
	// in short frames, filtering only those that can hold the round's
	// best peak, on larger banks; core.ModeReference re-upsamples the
	// residual every round. All detect the same responses up to rounding.
	Mode core.DetectorMode
	// Workers bounds the parallel template fan-out per extraction round
	// on banks of at least eight shapes (0 = automatic: GOMAXPROCS).
	// Smaller banks search serially by default.
	Workers int
}

// Scenario is a mutable deployment description.
type Scenario struct {
	cfg        Config
	initiator  *nodeSpec
	responders []nodeSpec
}

type nodeSpec struct {
	id   int
	x, y float64
}

// NewScenario starts an empty scenario.
func NewScenario(cfg Config) *Scenario {
	return &Scenario{cfg: cfg}
}

// SetInitiator places the initiator at (x, y) meters.
func (s *Scenario) SetInitiator(x, y float64) *Scenario {
	s.initiator = &nodeSpec{id: -1, x: x, y: y}
	return s
}

// AddResponder places a responder with the given ID at (x, y) meters.
// With pulse shaping and RPM enabled, the ID determines the responder's
// slot and pulse shape; it must be unique and below the scheme capacity.
func (s *Scenario) AddResponder(id int, x, y float64) *Scenario {
	s.responders = append(s.responders, nodeSpec{id: id, x: x, y: y})
	return s
}

// Session is a built, runnable deployment.
type Session struct {
	net       *sim.Network
	initiator *sim.Node
	resps     []*sim.Node
	plan      core.SlotPlan
	bank      *pulse.Bank
	detector  *core.Detector
	resolver  *core.Resolver
	roundCfg  sim.RoundConfig

	// Instrumentation (all optional): the metrics recorder, the
	// decision-level flight recorder, the scenario seed the trace spans
	// carry, and the 0-based Run counter.
	rec obs.Recorder
	// roundsOK/roundsErr are pre-resolved labeled round-outcome counters
	// (nil unless rec supports labeled series); see MetricRounds.
	roundsOK  *obs.Counter
	roundsErr *obs.Counter
	flight    *trace.Tracer
	seed      uint64
	rounds    uint64
}

// Build validates the scenario and constructs the simulation.
func (s *Scenario) Build() (*Session, error) {
	if s.initiator == nil {
		return nil, fmt.Errorf("ranging: scenario has no initiator")
	}
	if len(s.responders) == 0 {
		return nil, fmt.Errorf("ranging: scenario has no responders")
	}
	envName := s.cfg.Environment
	if envName == "" {
		envName = EnvOffice
	}
	env, err := channel.PresetByName(envName)
	if err != nil {
		return nil, err
	}
	if len(s.cfg.Obstacles) > 0 {
		if env.Plan == nil {
			env.Plan = &geom.FloorPlan{}
		}
		for i, o := range s.cfg.Obstacles {
			if !inBounds(o.X1, o.Y1, o.X2, o.Y2) || !finite(o.LossDB) {
				return nil, fmt.Errorf("%w: obstacle %d from (%g, %g) to (%g, %g) with loss %g dB, bound ±%g m",
					ErrNonFinitePosition, i, o.X1, o.Y1, o.X2, o.Y2, o.LossDB, maxCoordinate)
			}
			if o.LossDB < 0 {
				return nil, fmt.Errorf("ranging: obstacle %d has negative loss %g dB", i, o.LossDB)
			}
			env.Plan.Obstacles = append(env.Plan.Obstacles, geom.Obstacle{
				Seg:                geom.Segment{A: geom.Point{X: o.X1, Y: o.Y1}, B: geom.Point{X: o.X2, Y: o.Y2}},
				TransmissionLossDB: o.LossDB,
				Name:               fmt.Sprintf("obstacle%d", i),
			})
		}
	}
	if s.cfg.MaxRange < 0 || !finite(s.cfg.MaxRange) {
		return nil, fmt.Errorf("%w: max range %g m must be finite and non-negative", ErrInvalidConfig, s.cfg.MaxRange)
	}
	if s.cfg.ClockOffsetPPM < 0 || s.cfg.ClockOffsetPPM >= 1e6 || !finite(s.cfg.ClockOffsetPPM) {
		return nil, fmt.Errorf("%w: clock offset %g ppm must be finite, non-negative and below 1e6", ErrInvalidConfig, s.cfg.ClockOffsetPPM)
	}
	if !finite(s.cfg.ResponseDelay) {
		return nil, fmt.Errorf("%w: response delay %g s must be finite", ErrInvalidConfig, s.cfg.ResponseDelay)
	}
	if s.cfg.NumShapes < 0 {
		return nil, fmt.Errorf("%w: %d pulse shapes", ErrInvalidConfig, s.cfg.NumShapes)
	}
	numShapes := max(s.cfg.NumShapes, 1)
	var plan core.SlotPlan
	if s.cfg.MaxRange > 0 {
		plan, err = core.NewSlotPlan(s.cfg.MaxRange, numShapes)
		if err != nil {
			return nil, err
		}
	} else {
		plan = core.SingleSlot(numShapes)
	}
	seen := make(map[int]bool, len(s.responders))
	for _, r := range s.responders {
		if seen[r.id] {
			return nil, fmt.Errorf("%w: duplicate responder ID %d", ErrInvalidConfig, r.id)
		}
		seen[r.id] = true
		if plan.Capacity() > 1 && (r.id < 0 || r.id >= plan.Capacity()) {
			return nil, fmt.Errorf("%w: responder ID %d outside scheme capacity %d",
				ErrInvalidConfig, r.id, plan.Capacity())
		}
	}
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, numShapes)
	if err != nil {
		return nil, err
	}
	net, err := sim.NewNetwork(sim.NetworkConfig{
		Environment:      env,
		Seed:             s.cfg.Seed,
		RandomClockPhase: true,
	})
	if err != nil {
		return nil, err
	}
	initNode, err := net.AddNode(sim.NodeConfig{
		ID:             -1,
		Name:           "initiator",
		Pos:            geom.Point{X: s.initiator.x, Y: s.initiator.y},
		ClockOffsetPPM: s.drawPPM(net),
	})
	if err != nil {
		return nil, err
	}
	resps := make([]*sim.Node, 0, len(s.responders))
	for _, r := range s.responders {
		node, err := net.AddNode(sim.NodeConfig{
			ID:             r.id,
			Name:           fmt.Sprintf("responder%d", r.id),
			Pos:            geom.Point{X: r.x, Y: r.y},
			ClockOffsetPPM: s.drawPPM(net),
		})
		if err != nil {
			return nil, err
		}
		resps = append(resps, node)
	}
	det, err := core.NewDetector(bank, core.DetectorConfig{
		Upsample:        s.cfg.Detector.Upsample,
		MaxResponses:    s.cfg.Detector.MaxResponses,
		ThresholdFactor: s.cfg.Detector.ThresholdFactor,
		Mode:            s.cfg.Detector.Mode,
		Workers:         s.cfg.Detector.Workers,
	})
	if err != nil {
		return nil, err
	}
	sess := &Session{
		net:       net,
		initiator: initNode,
		resps:     resps,
		plan:      plan,
		bank:      bank,
		detector:  det,
		resolver:  &core.Resolver{Plan: plan},
		seed:      s.cfg.Seed,
		roundCfg: sim.RoundConfig{
			ResponseDelay:         s.cfg.ResponseDelay,
			Plan:                  plan,
			Bank:                  bank,
			DisableTXQuantization: s.cfg.IdealTransceiver,
			DriftCompensation:     s.cfg.DriftCompensation,
			Capture:               captureModel(s.cfg.ModelDecodeFailures),
		},
	}
	if err := sess.checkPositions(); err != nil {
		return nil, err
	}
	return sess, nil
}

func captureModel(enabled bool) *sim.CaptureModel {
	if !enabled {
		return nil
	}
	return sim.DefaultCaptureModel()
}

func (s *Scenario) drawPPM(net *sim.Network) float64 {
	if s.cfg.ClockOffsetPPM == 0 {
		return 0
	}
	return (net.RNG().Float64()*2 - 1) * s.cfg.ClockOffsetPPM
}

// Capacity returns the maximum number of concurrently supported
// responders of the built scheme (N_max = N_RPM · N_PS, Sect. VIII).
func (s *Session) Capacity() int { return s.plan.Capacity() }

// Plan returns the slot plan in force.
func (s *Session) Plan() core.SlotPlan { return s.plan }

// ResponseDelay returns the Δ_RESP used by the session, seconds.
func (s *Session) ResponseDelay() float64 {
	if s.roundCfg.ResponseDelay != 0 {
		return s.roundCfg.ResponseDelay
	}
	return airtime.DefaultResponseDelay
}
