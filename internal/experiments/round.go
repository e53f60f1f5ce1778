package experiments

import (
	"math"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

// network builds a network from nc with env's recorder and flight
// recorder (if any) attached, and adds the nodes in order (node order
// fixes each node's RNG stream).
func network(env *Env, nc sim.NetworkConfig, nodes ...sim.NodeConfig) (*sim.Network, []*sim.Node, error) {
	net, err := sim.NewNetwork(nc)
	if err != nil {
		return nil, nil, err
	}
	net.SetRecorder(env.recorder())
	net.SetFlightRecorder(env.flight())
	added := make([]*sim.Node, len(nodes))
	for i, c := range nodes {
		if added[i], err = net.AddNode(c); err != nil {
			return nil, nil, err
		}
	}
	return net, added, nil
}

// concurrentRound is the round fixture every Monte-Carlo trial runs on: a
// network with the initiator (ID −1) at init and then the responders, and
// one concurrent round.
func concurrentRound(env *Env, nc sim.NetworkConfig, init geom.Point, responders []sim.NodeConfig, rc sim.RoundConfig) (*sim.RoundResult, error) {
	initiator := sim.NodeConfig{ID: -1, Name: "initiator", Pos: init}
	net, nodes, err := network(env, nc, append([]sim.NodeConfig{initiator}, responders...)...)
	if err != nil {
		return nil, err
	}
	return net.RunConcurrentRound(nodes[0], nodes[1:], rc)
}

// inLine places responders 0, 1, … at the given distances along the
// initiator's x axis.
func inLine(init geom.Point, distances ...float64) []sim.NodeConfig {
	out := make([]sim.NodeConfig, len(distances))
	for i, d := range distances {
		out[i] = sim.NodeConfig{ID: i, Pos: geom.Point{X: init.X + d, Y: init.Y}}
	}
	return out
}

// refDelay is the CIR delay of the response the receiver locks to: the
// accumulator aligns it to the reference index.
const refDelay = float64(dw1000.ReferenceIndex) * dw1000.SampleInterval

// expectedDelay is responder id's true CIR position (ground truth) when
// the anchor's response sits at the reference index: 2·(d_id − d_anchor)/c
// later, shifted by the realized TX quantization difference.
func expectedDelay(round *sim.RoundResult, anchor, id int) float64 {
	quantDiff := round.TXQuantizationError[id] - round.TXQuantizationError[anchor]
	return refDelay + 2*(round.TrueDistance[id]-round.TrueDistance[anchor])/channel.SpeedOfLight - quantDiff
}

// nearestResponse returns the index of the detected response closest to
// expected, or −1 when none lies within tol of it.
func nearestResponse(responses []core.Response, expected, tol float64) int {
	best, bestDist := -1, tol
	for i, r := range responses {
		if d := math.Abs(r.Delay - expected); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// rangeErrors resolves a round's detections with plan and returns each
// responder's |distance error| against distances (IDs 0, 1, …): +Inf for
// a responder the resolution misses, and for all of them when it fails.
func rangeErrors(plan core.SlotPlan, responses []core.Response, round *sim.RoundResult, distances []float64) []float64 {
	errs := make([]float64, len(distances))
	for id := range errs {
		errs[id] = math.Inf(1)
	}
	resolver := core.Resolver{Plan: plan}
	ms, err := resolver.Resolve(responses, round.DecodedID, round.TWRDistance())
	if err != nil {
		return errs
	}
	for _, m := range ms {
		if m.ID >= 0 && m.ID < len(errs) {
			errs[m.ID] = math.Abs(m.Distance - distances[m.ID])
		}
	}
	return errs
}

// detectors returns a parallelMapWith worker constructor that gives each
// worker its own detector per config, instrumented by env: a Detector's
// cached plans and scratch are not safe for concurrent use.
func detectors(env *Env, bank *pulse.Bank, cfgs ...core.DetectorConfig) func() ([]*core.Detector, error) {
	return func() ([]*core.Detector, error) {
		dets := make([]*core.Detector, len(cfgs))
		for i, cfg := range cfgs {
			det, err := core.NewDetector(bank, cfg)
			if err != nil {
				return nil, err
			}
			dets[i] = env.instrumentDetector(det)
		}
		return dets, nil
	}
}
