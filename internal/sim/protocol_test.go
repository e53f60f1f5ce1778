package sim

import (
	"math"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/airtime"
	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// hallwayNetwork builds the Fig. 4 deployment: an initiator at x=2 m and
// responders at 3, 6 and 10 m down a corridor.
func hallwayNetwork(t *testing.T, seed uint64) (*Network, *Node, []*Node) {
	t.Helper()
	net, err := NewNetwork(NetworkConfig{Environment: channel.Hallway(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	init, err := net.AddNode(NodeConfig{ID: -1, Name: "initiator", Pos: geom.Point{X: 2, Y: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	var resps []*Node
	for i, d := range []float64{3, 6, 10} {
		r, err := net.AddNode(NodeConfig{ID: i, Pos: geom.Point{X: 2 + d, Y: 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, r)
	}
	return net, init, resps
}

func TestNewNetworkDefaults(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if net.Environment().Name != "office" {
		t.Fatalf("default environment %q", net.Environment().Name)
	}
	if net.PHY() != airtime.PaperConfig() {
		t.Fatalf("PHY %+v, want the paper's %+v", net.PHY(), airtime.PaperConfig())
	}
	node, err := net.AddNode(NodeConfig{ID: 0, ClockOffsetPPM: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := node.Radio.Config()
	if cfg.PHY != airtime.PaperConfig() || cfg.NoiseRMS != dw1000.DefaultNoiseRMS ||
		cfg.Clock != (dw1000.Clock{OffsetPPM: 3}) {
		t.Fatalf("node radio %+v, want the paper's PHY, DefaultNoiseRMS and a 3 ppm clock at phase 0", cfg)
	}
}

func TestRandomClockPhaseKeepsRNGStreamStable(t *testing.T) {
	// The same seed must produce the same node radios (noise streams)
	// whether or not random phases are on.
	build := func(random bool) *Node {
		net, _ := NewNetwork(NetworkConfig{Seed: 42, RandomClockPhase: random})
		n, _ := net.AddNode(NodeConfig{ID: 0, Pos: geom.Point{X: 1, Y: 1}})
		return n
	}
	a := build(false)
	b := build(true)
	if a.Radio.Clock().Phase == b.Radio.Clock().Phase {
		t.Fatal("random phase had no effect")
	}
	if b.Radio.Clock().Phase < 0 || b.Radio.Clock().Phase >= 1 {
		t.Fatalf("phase %g outside [0,1)", b.Radio.Clock().Phase)
	}
}

func TestRunTWRExchangeAccuracy(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Environment: channel.Office(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := net.AddNode(NodeConfig{ID: -1, Name: "init", Pos: geom.Point{X: 1, Y: 1}})
	b, _ := net.AddNode(NodeConfig{ID: 0, Name: "resp", Pos: geom.Point{X: 4, Y: 1}})
	var stats dsp.Running
	for i := 0; i < 50; i++ {
		d, err := net.RunTWRExchange(a, b, 290e-6, nil)
		if err != nil {
			t.Fatal(err)
		}
		stats.Add(d - 3)
	}
	// cm-level accuracy, per the paper's Sect. V measurements.
	if math.Abs(stats.Mean()) > 0.05 {
		t.Fatalf("TWR bias %g m", stats.Mean())
	}
	if stats.StdDev() > 0.06 {
		t.Fatalf("TWR σ %g m", stats.StdDev())
	}
}

func TestConcurrentRoundFig4Distances(t *testing.T) {
	// The full Fig. 4 pipeline with TX quantization disabled (the paper's
	// idealized illustration): three responders at 3/6/10 m are detected
	// and ranged to within centimeters.
	net, init, resps := hallwayNetwork(t, 11)
	bank, err := pulse.NewBank(dw1000.SampleInterval, pulse.RegisterS1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.RunConcurrentRound(init, resps, RoundConfig{
		Bank:                  bank,
		DisableTXQuantization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodedID != 0 {
		t.Fatalf("decoded responder %d, want the closest (0)", res.DecodedID)
	}
	dTWR := res.TWRDistance()
	if !closeTo(dTWR, 3, 0.05) {
		t.Fatalf("d_TWR = %g, want 3 ± 0.05", dTWR)
	}
	det, err := core.NewDetector(bank, core.DetectorConfig{MaxResponses: 3})
	if err != nil {
		t.Fatal(err)
	}
	responses, err := det.Detect(res.Reception.CIR.Taps, res.Reception.CIR.NoiseRMS)
	if err != nil {
		t.Fatal(err)
	}
	if len(responses) != 3 {
		t.Fatalf("detected %d responses, want 3", len(responses))
	}
	resolver := &core.Resolver{Plan: core.SingleSlot(1)}
	ms, err := resolver.Resolve(responses, 0, dTWR)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 6, 10}
	if len(ms) != 3 {
		t.Fatalf("%d measurements", len(ms))
	}
	for i, m := range ms {
		if !closeTo(m.Distance, want[i], 0.15) {
			t.Fatalf("responder %d: distance %g, want %g ± 0.15", i, m.Distance, want[i])
		}
	}
}

func TestConcurrentRoundTXQuantizationError(t *testing.T) {
	net, init, resps := hallwayNetwork(t, 13)
	res, err := net.RunConcurrentRound(init, resps, RoundConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var nonzero int
	for id, e := range res.TXQuantizationError {
		if e < 0 || e >= dw1000.DelayedTXGranularity {
			t.Fatalf("responder %d: quantization error %g outside [0, 8 ns)", id, e)
		}
		if e > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("no responder shows TX quantization (statistically impossible)")
	}
	// With quantization disabled all errors are exactly zero.
	net2, init2, resps2 := hallwayNetwork(t, 13)
	res2, err := net2.RunConcurrentRound(init2, resps2, RoundConfig{DisableTXQuantization: true})
	if err != nil {
		t.Fatal(err)
	}
	for id, e := range res2.TXQuantizationError {
		if e != 0 {
			t.Fatalf("responder %d: error %g with quantization disabled", id, e)
		}
	}
}

func TestConcurrentRoundCombinedScheme(t *testing.T) {
	// Nine responders, 4 slots × 3 shapes (Fig. 8), all identified and
	// ranged. Quantization disabled to assert tight distances.
	net, err := NewNetwork(NetworkConfig{Environment: channel.Hallway(), Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	init, _ := net.AddNode(NodeConfig{ID: -1, Name: "initiator", Pos: geom.Point{X: 1, Y: 0.9}})
	plan, err := core.NewSlotPlan(75, 3)
	if err != nil {
		t.Fatal(err)
	}
	var resps []*Node
	truth := map[int]float64{}
	for id := 0; id < 9; id++ {
		d := 2.0 + float64(id)*0.9
		r, err := net.AddNode(NodeConfig{ID: id, Pos: geom.Point{X: 1 + d, Y: 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, r)
		truth[id] = d
	}
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.RunConcurrentRound(init, resps, RoundConfig{
		Plan:                  plan,
		Bank:                  bank,
		DisableTXQuantization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(bank, core.DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	responses, err := det.Detect(res.Reception.CIR.Taps, res.Reception.CIR.NoiseRMS)
	if err != nil {
		t.Fatal(err)
	}
	resolver := &core.Resolver{Plan: plan}
	ms, err := resolver.Resolve(responses, res.DecodedID, res.TWRDistance())
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]float64{}
	for _, m := range ms {
		found[m.ID] = m.Distance
	}
	for id, want := range truth {
		got, ok := found[id]
		if !ok {
			t.Errorf("responder %d not identified (found %v)", id, found)
			continue
		}
		if !closeTo(got, want, 0.3) {
			t.Errorf("responder %d: distance %g, want %g", id, got, want)
		}
	}
}

func TestConcurrentRoundValidation(t *testing.T) {
	net, init, resps := hallwayNetwork(t, 19)
	if _, err := net.RunConcurrentRound(nil, resps, RoundConfig{}); err == nil {
		t.Error("nil initiator accepted")
	}
	if _, err := net.RunConcurrentRound(init, nil, RoundConfig{}); err == nil {
		t.Error("no responders accepted")
	}
	if _, err := net.RunConcurrentRound(init, resps, RoundConfig{ResponseDelay: 50e-6}); err == nil {
		t.Error("sub-minimum response delay accepted")
	}
	// Responder ID beyond the plan capacity.
	plan, _ := core.NewSlotPlan(75, 1)
	big, _ := net.AddNode(NodeConfig{ID: 99, Pos: geom.Point{X: 5, Y: 1}})
	if _, err := net.RunConcurrentRound(init, []*Node{big}, RoundConfig{Plan: plan}); err == nil {
		t.Error("ID beyond plan capacity accepted")
	}
}

func TestConcurrentRoundDeterminism(t *testing.T) {
	run := func() []complex128 {
		net, init, resps := hallwayNetwork(t, 23)
		res, err := net.RunConcurrentRound(init, resps, RoundConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Reception.CIR.Taps
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("CIR differs at tap %d with identical seeds", i)
		}
	}
}

// TestConcurrentRoundAcrossCounterWrap starts the same round late enough
// that responder clocks have wrapped their 40-bit counters (16.5 s: two of
// three past the first wrap; 40 s: all in their third epoch). The round
// must lock within its own exchange, leave the clock at that lock, and
// give the detector the same CIR shape as at t = 0.
func TestConcurrentRoundAcrossCounterWrap(t *testing.T) {
	run := func(start float64) (*Network, *RoundResult) {
		net, err := NewNetwork(NetworkConfig{Environment: channel.Hallway(), Seed: 42, RandomClockPhase: true})
		if err != nil {
			t.Fatal(err)
		}
		init, err := net.AddNode(NodeConfig{ID: -1, Name: "init", Pos: geom.Point{X: 1, Y: 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		var resps []*Node
		for i, x := range []float64{4, 7, 10} {
			node, err := net.AddNode(NodeConfig{ID: i, Pos: geom.Point{X: x, Y: 0.9}})
			if err != nil {
				t.Fatal(err)
			}
			resps = append(resps, node)
		}
		if phase := resps[0].Radio.Clock().Phase; !closeTo(phase, 0.777, 1e-3) {
			t.Fatalf("responder 0 clock phase %g, want ≈ 0.777 s", phase)
		}
		net.now = start
		round, err := net.RunConcurrentRound(init, resps, RoundConfig{})
		if err != nil {
			t.Fatalf("round at %g s: %v", start, err)
		}
		return net, round
	}
	bank, err := pulse.DefaultBank(dw1000.SampleInterval, 1)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(bank, core.DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	detect := func(round *RoundResult) int {
		responses, err := det.Detect(round.Reception.CIR.Taps, round.Reception.CIR.NoiseRMS)
		if err != nil {
			t.Fatal(err)
		}
		return len(responses)
	}
	_, ref := run(0)
	want := detect(ref)
	for _, start := range []float64{16.5, 40} {
		net, round := run(start)
		lock := round.Reception.LockedArrivalTime
		if d := lock - start; !(d > 290e-6 && d < 1e-3) {
			t.Errorf("round at %g s locked %.6f s after its start, want within (290 µs, 1 ms)", start, d)
		}
		if net.now != lock {
			t.Errorf("round at %g s left the clock at %.6f s, want the lock at %.6f s", start, net.now, lock)
		}
		if got := detect(round); got != want {
			t.Errorf("round at %g s: detector found %d responses, %d at t = 0", start, got, want)
		}
		if d := round.TWRDistance(); !closeTo(d, 3, 0.3) {
			t.Errorf("round at %g s: d_TWR %g m, want 3 ± 0.3", start, d)
		}
	}
}
