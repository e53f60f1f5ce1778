package sim

// Trace-path and recorder coverage for concurrent rounds: the event
// sequence tx-init → rx-init → tx-resp → rx-aggregate → decode, the
// nil-tracer contract, the timeline's observational contract across
// rounds, and the frame/collision/decode counts.

import (
	"fmt"
	"math"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
)

// traceNetwork builds a hallway network with one initiator and nResp
// responders.
func traceNetwork(t *testing.T, nResp int) (*Network, *Node, []*Node) {
	t.Helper()
	net, err := NewNetwork(NetworkConfig{Environment: channel.Hallway(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	init, err := net.AddNode(NodeConfig{ID: -1, Name: "init", Pos: geom.Point{X: 1, Y: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	var resps []*Node
	for i := 0; i < nResp; i++ {
		node, err := net.AddNode(NodeConfig{ID: i, Pos: geom.Point{X: 4 + 3*float64(i), Y: 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, node)
	}
	return net, init, resps
}

func TestTracerEventSequence(t *testing.T) {
	const nResp = 2
	net, init, resps := traceNetwork(t, nResp)
	var events []TraceEvent
	net.SetTracer(func(e TraceEvent) { events = append(events, e) })
	if _, err := net.RunConcurrentRound(init, resps, RoundConfig{}); err != nil {
		t.Fatal(err)
	}

	// One tx-init, one rx-init and one tx-resp per responder, one
	// rx-aggregate, one decode.
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	want := map[string]int{
		EventTXInit: 1, EventRXInit: nResp, EventTXResponse: nResp,
		EventRXAggregate: 1, EventDecode: 1,
	}
	for kind, n := range want {
		if counts[kind] != n {
			t.Errorf("%d %s events, want %d", counts[kind], kind, n)
		}
	}
	if len(events) != 1+2*nResp+2 {
		t.Fatalf("%d events total, want %d", len(events), 1+2*nResp+2)
	}

	// Phase ordering: the INIT broadcast strictly first, every responder
	// hears INIT before any responder transmits, the aggregate reception
	// after all responses, the decode last.
	phase := map[string]int{
		EventTXInit: 0, EventRXInit: 1, EventTXResponse: 2,
		EventRXAggregate: 3, EventDecode: 4,
	}
	for i := 1; i < len(events); i++ {
		if phase[events[i].Kind] < phase[events[i-1].Kind] {
			t.Fatalf("event %d (%s) out of order after %s", i, events[i].Kind, events[i-1].Kind)
		}
		if events[i].Time < events[i-1].Time {
			t.Fatalf("timeline not monotone at event %d: %g after %g",
				i, events[i].Time, events[i-1].Time)
		}
	}
	if events[0].Node != "init" || events[len(events)-1].Kind != EventDecode {
		t.Fatalf("unexpected endpoints: first %+v, last %+v", events[0], events[len(events)-1])
	}
}

func TestNilTracerEmitsNothing(t *testing.T) {
	net, init, resps := traceNetwork(t, 2)
	fired := 0
	net.SetTracer(func(TraceEvent) { fired++ })
	net.SetTracer(nil) // installing then clearing must fully disable
	if _, err := net.RunConcurrentRound(init, resps, RoundConfig{}); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("nil tracer still received %d events", fired)
	}
}

// roundText renders every field of a round, its reception and its CIR;
// fmt prints each float in the shortest form that round-trips, so equal
// texts mean bit-identical rounds.
func roundText(r *RoundResult) string {
	top, rec := *r, *r.Reception
	cir := *rec.CIR
	top.Reception, rec.CIR = nil, nil
	return fmt.Sprintf("%+v\n%+v\n%+v", top, rec, cir)
}

// combinedNetwork builds the Fig. 8-style deployment: nine responders at
// x = 3.0 + 1.6·id m down a hallway, ranged with 4 RPM slots × 3 pulse
// shapes.
func combinedNetwork(t *testing.T) (*Network, *Node, []*Node, RoundConfig) {
	t.Helper()
	net, err := NewNetwork(NetworkConfig{Environment: channel.Hallway(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	init, err := net.AddNode(NodeConfig{ID: -1, Name: "init", Pos: geom.Point{X: 1, Y: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	var resps []*Node
	for id := 0; id < 9; id++ {
		node, err := net.AddNode(NodeConfig{ID: id, Pos: geom.Point{X: 3.0 + 1.6*float64(id), Y: 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, node)
	}
	plan, err := core.NewSlotPlan(75, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumSlots != 4 {
		t.Fatalf("plan has %d slots, want 4", plan.NumSlots)
	}
	return net, init, resps, RoundConfig{Plan: plan}
}

// TestTracedRoundMatchesUntraced pins the timeline's observational
// contract across rounds: with and without a tracer, the same seed gives
// bit-identical rounds and leaves the clock at the same instant after
// every one of them.
func TestTracedRoundMatchesUntraced(t *testing.T) {
	const rounds = 4
	layouts := map[string]func(t *testing.T) (*Network, *Node, []*Node, RoundConfig){
		"3 responders": func(t *testing.T) (*Network, *Node, []*Node, RoundConfig) {
			net, init, resps := traceNetwork(t, 3)
			return net, init, resps, RoundConfig{}
		},
		"4 slots x 3 shapes": combinedNetwork,
	}
	for name, build := range layouts {
		t.Run(name, func(t *testing.T) {
			run := func(traced bool) (texts []string, clocks []uint64) {
				net, init, resps, cfg := build(t)
				if traced {
					net.SetTracer(func(TraceEvent) {})
				}
				for r := 0; r < rounds; r++ {
					round, err := net.RunConcurrentRound(init, resps, cfg)
					if err != nil {
						t.Fatal(err)
					}
					texts = append(texts, roundText(round))
					clocks = append(clocks, math.Float64bits(net.now))
				}
				return texts, clocks
			}
			plain, plainClock := run(false)
			traced, tracedClock := run(true)
			for r := 0; r < rounds; r++ {
				if plainClock[r] != tracedClock[r] {
					t.Fatalf("round %d: clock %.4f µs untraced, %.4f µs traced", r,
						math.Float64frombits(plainClock[r])*1e6, math.Float64frombits(tracedClock[r])*1e6)
				}
				if plain[r] != traced[r] {
					t.Fatalf("round %d: the tracer changed the result", r)
				}
			}
		})
	}
}

func TestNetworkStatsAndRecorder(t *testing.T) {
	const nResp = 3
	net, init, resps := traceNetwork(t, nResp)
	reg := obs.NewRegistry()
	net.SetRecorder(reg)
	if _, err := net.RunConcurrentRound(init, resps, RoundConfig{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	want := map[string]int64{
		MetricFramesOnAir:    1 + nResp, // one INIT + one RESP each
		MetricReceptions:     nResp + 1, // INIT at each responder + the aggregate
		MetricCollisions:     1,         // the aggregate held 3 overlapping arrivals
		MetricDecodeFailures: 0,         // no capture model
	}
	for name, n := range want {
		if got := snap.CounterValue(name); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
}

func TestNetworkStatsCountDecodeFailures(t *testing.T) {
	// Twelve responders on a 5 m free-space ring all arrive with the same
	// power, so the locked arrival's SIR is 10·log10(1/11) ≈ −10.4 dB,
	// below the default capture model's −9 dB threshold: the payload
	// fails to decode at every seed, and the failure is counted once.
	for seed := uint64(1); seed <= 10; seed++ {
		net, err := NewNetwork(NetworkConfig{Environment: channel.FreeSpace(), Seed: seed,
			RandomClockPhase: true})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		net.SetRecorder(reg)
		init, err := net.AddNode(NodeConfig{ID: -1, Name: "init", Pos: geom.Point{}})
		if err != nil {
			t.Fatal(err)
		}
		var resps []*Node
		for i := 0; i < 12; i++ {
			a := 2 * math.Pi * float64(i) / 12
			node, err := net.AddNode(NodeConfig{ID: i, Pos: geom.Point{X: 5 * math.Cos(a), Y: 5 * math.Sin(a)}})
			if err != nil {
				t.Fatal(err)
			}
			resps = append(resps, node)
		}
		round, err := net.RunConcurrentRound(init, resps, RoundConfig{Capture: DefaultCaptureModel()})
		if err != nil {
			t.Fatal(err)
		}
		if want := 10 * math.Log10(1.0/11); math.Abs(round.LockSIRdB-want) > 0.1 {
			t.Errorf("seed %d: locked SIR %.2f dB, want %.2f dB", seed, round.LockSIRdB, want)
		}
		if round.DecodeOK {
			t.Errorf("seed %d: 12 equal-power arrivals decoded", seed)
		}
		if got := reg.Snapshot().CounterValue(MetricDecodeFailures); got != 1 {
			t.Errorf("seed %d: %s = %d, want 1", seed, MetricDecodeFailures, got)
		}
	}

	// Three responders 3 m apart in the hallway: the closest arrival
	// captures the receiver and decodes, and no failure is counted.
	net, init, resps := traceNetwork(t, 3)
	reg := obs.NewRegistry()
	net.SetRecorder(reg)
	round, err := net.RunConcurrentRound(init, resps, RoundConfig{Capture: DefaultCaptureModel()})
	if err != nil {
		t.Fatal(err)
	}
	if !round.DecodeOK {
		t.Error("the closest of 3 hallway responders failed to decode")
	}
	if got := reg.Snapshot().CounterValue(MetricDecodeFailures); got != 0 {
		t.Errorf("decoded round: %s = %d, want 0", MetricDecodeFailures, got)
	}
}
