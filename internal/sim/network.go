package sim

import (
	"fmt"
	"math/rand/v2"

	"github.com/uwb-sim/concurrent-ranging/internal/airtime"
	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
)

// Node is one UWB device: an application-level responder ID, a position in
// the floor plane, and a DW1000 radio.
type Node struct {
	// ID is the responder identifier the combined scheme maps to a slot
	// and pulse shape. The initiator conventionally uses -1.
	ID int
	// Name labels the node in traces and radio identifiers.
	Name string
	// Pos is the node position in meters.
	Pos geom.Point
	// Radio is the node's transceiver model.
	Radio *dw1000.Radio
}

// NodeConfig describes a node to be created in a network.
type NodeConfig struct {
	// ID is the application-level responder ID (-1 for the initiator).
	ID int
	// Name labels the node; empty derives "node<ID>".
	Name string
	// Pos is the node position.
	Pos geom.Point
	// ClockOffsetPPM is the crystal frequency error.
	ClockOffsetPPM float64
}

// NetworkConfig describes the simulated deployment. Every radio runs
// the paper's PHY, 6.8 Mbps / PRF 64 / PSR 128 (airtime.PaperConfig).
type NetworkConfig struct {
	// Environment is the propagation model; nil selects channel.Office().
	Environment *channel.Environment
	// Seed makes the whole simulation deterministic.
	Seed uint64
	// RandomClockPhase draws each node's clock phase (its device clock
	// reading at simulation time 0) uniformly from [0, 1) s, as
	// unsynchronized devices would have. Without it every phase is 0.
	RandomClockPhase bool
}

// Network is a set of nodes sharing an environment, a virtual clock and a
// deterministic RNG. Rounds run one after another on the clock; each
// advances it to its aggregated reception.
type Network struct {
	// now is the virtual clock in seconds.
	now float64

	env         *channel.Environment
	rng         *rand.Rand
	seed        uint64
	nodeNames   map[string]bool
	randomPhase bool
	trace       func(TraceEvent)
	rec         obs.Recorder
	// recSingle/recConcurrent are pre-resolved labeled reception
	// counters (nil unless rec supports labeled series); see
	// MetricReceptionsByKind.
	recSingle     *obs.Counter
	recConcurrent *obs.Counter

	// flight and traceParent feed the decision-level flight recorder
	// (internal/obs/trace); see flight.go. Distinct from the text
	// timeline tracer above.
	flight      *trace.Tracer
	traceParent *trace.Span
}

// NewNetwork builds an empty network.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	env := cfg.Environment
	if env == nil {
		env = channel.Office()
	}
	return &Network{
		env:         env,
		rng:         rand.New(rand.NewPCG(cfg.Seed, 0x5eed)),
		seed:        cfg.Seed,
		nodeNames:   make(map[string]bool),
		randomPhase: cfg.RandomClockPhase,
	}, nil
}

// Environment returns the propagation environment.
func (n *Network) Environment() *channel.Environment { return n.env }

// PHY returns the radio configuration shared by all nodes, the paper's
// (airtime.PaperConfig).
func (n *Network) PHY() airtime.Config { return airtime.PaperConfig() }

// RNG returns the network's deterministic random source.
func (n *Network) RNG() *rand.Rand { return n.rng }

// AddNode creates a node with its own radio and clock. Each node takes
// its clock phase draw and its radio's RNG seed off the network RNG in
// turn, so the order nodes are added in decides which noise and jitter
// streams each radio gets: add them in a fixed order (ascending ID, say)
// for runs that repeat.
func (n *Network) AddNode(cfg NodeConfig) (*Node, error) {
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("node%d", cfg.ID)
	}
	// The name index keeps AddNode O(1); the old per-add scan over all
	// nodes made building an n-node network O(n²).
	if n.nodeNames[name] {
		return nil, fmt.Errorf("sim: duplicate node name %q", name)
	}
	n.nodeNames[name] = true
	// Draw unconditionally so the RNG stream (and hence every downstream
	// noise sample) is identical whether or not random phases are enabled.
	draw := n.rng.Float64()
	var phase float64
	if n.randomPhase {
		phase = draw
	}
	radioCfg := dw1000.Config{
		PHY:   n.PHY(),
		Clock: dw1000.Clock{OffsetPPM: cfg.ClockOffsetPPM, Phase: phase},
	}
	radio, err := dw1000.New(name, radioCfg, rand.New(rand.NewPCG(n.rng.Uint64(), 0xbeef)))
	if err != nil {
		return nil, err
	}
	node := &Node{ID: cfg.ID, Name: name, Pos: cfg.Pos, Radio: radio}
	return node, nil
}

// Distance returns the true distance between two nodes in meters.
func Distance(a, b *Node) float64 { return a.Pos.Dist(b.Pos) }
