package ranging

import (
	"errors"
	"math"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
)

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestScenarioValidation(t *testing.T) {
	if _, err := NewScenario(Config{}).Build(); err == nil {
		t.Error("empty scenario accepted")
	}
	sc := NewScenario(Config{})
	sc.SetInitiator(1, 1)
	if _, err := sc.Build(); err == nil {
		t.Error("scenario without responders accepted")
	}
	sc.AddResponder(0, 3, 1)
	sc.AddResponder(0, 4, 1)
	if _, err := sc.Build(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("duplicate responder ID: err = %v, want ErrInvalidConfig", err)
	}
	bad := NewScenario(Config{Environment: "moonbase"})
	bad.SetInitiator(1, 1)
	bad.AddResponder(0, 3, 1)
	if _, err := bad.Build(); err == nil {
		t.Error("unknown environment accepted")
	}
	over := NewScenario(Config{MaxRange: 75, NumShapes: 3})
	over.SetInitiator(1, 1)
	over.AddResponder(50, 3, 1) // capacity is 12
	if _, err := over.Build(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("responder ID beyond capacity: err = %v, want ErrInvalidConfig", err)
	}
	// Each config once built: a NaN or negative range silently switched
	// RPM off; a +Inf clock offset returned -43 km distances, a NaN one
	// failed as "no responses detected"; a NaN or +Inf response delay
	// failed as "delayed TX time … is in the past"; negative shape counts
	// ran anonymous ranging.
	inf := math.Inf(1)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"MaxRange NaN", Config{MaxRange: math.NaN(), NumShapes: 3}},
		{"MaxRange +Inf", Config{MaxRange: inf, NumShapes: 3}},
		{"MaxRange negative", Config{MaxRange: -75, NumShapes: 3}},
		{"ClockOffsetPPM NaN", Config{ClockOffsetPPM: math.NaN()}},
		{"ClockOffsetPPM +Inf", Config{ClockOffsetPPM: inf}},
		{"ClockOffsetPPM -Inf", Config{ClockOffsetPPM: -inf}},
		{"ClockOffsetPPM negative", Config{ClockOffsetPPM: -2}},
		{"ClockOffsetPPM 1e6", Config{ClockOffsetPPM: 1e6}},
		{"ResponseDelay NaN", Config{ResponseDelay: math.NaN()}},
		{"ResponseDelay +Inf", Config{ResponseDelay: inf}},
		{"ResponseDelay -Inf", Config{ResponseDelay: -inf}},
		{"NumShapes negative", Config{NumShapes: -3}},
	} {
		sc := NewScenario(c.cfg)
		sc.SetInitiator(1, 1)
		sc.AddResponder(0, 3, 1)
		if _, err := sc.Build(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: err = %v, want ErrInvalidConfig", c.name, err)
		}
	}
	// Values inside the domains still build.
	for _, cfg := range []Config{{ClockOffsetPPM: 20}, {NumShapes: 1}, {ResponseDelay: 400e-6}} {
		sc := NewScenario(cfg)
		sc.SetInitiator(1, 1)
		sc.AddResponder(0, 3, 1)
		if _, err := sc.Build(); err != nil {
			t.Errorf("%+v rejected: %v", cfg, err)
		}
	}
	// A non-finite threshold factor reaches the detector and fails there.
	nan := NewScenario(Config{Detector: DetectorOptions{ThresholdFactor: math.NaN()}})
	nan.SetInitiator(1, 1)
	nan.AddResponder(0, 3, 1)
	if _, err := nan.Build(); !errors.Is(err, core.ErrNonFinite) {
		t.Errorf("NaN threshold factor: err = %v, want core.ErrNonFinite", err)
	}
	// A non-finite coordinate once gave a NaN true distance, silently
	// dropped the responder, or failed with "no responses detected".
	place := func(cfg Config, initX, respX float64) *Scenario {
		sc := NewScenario(cfg)
		sc.SetInitiator(initX, 1)
		sc.AddResponder(0, respX, 1)
		return sc
	}
	obstacle := func(o Obstacle) *Scenario {
		return place(Config{Obstacles: []Obstacle{o}}, 1, 3)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		second := place(Config{}, 1, 3)
		second.AddResponder(1, 6, v)
		for _, c := range []struct {
			name string
			sc   *Scenario
		}{
			{"initiator x", place(Config{}, v, 3)},
			{"responder x", place(Config{}, 1, v)},
			{"second responder y", second},
			{"obstacle endpoint", obstacle(Obstacle{X1: 2, Y1: 0, X2: 2, Y2: v, LossDB: 3})},
			{"obstacle loss", obstacle(Obstacle{X1: 2, Y1: 0, X2: 2, Y2: 2, LossDB: v})},
		} {
			if _, err := c.sc.Build(); !errors.Is(err, ErrNonFinitePosition) {
				t.Errorf("%s %g: err = %v, want ErrNonFinitePosition", c.name, v, err)
			}
		}
	}
	// Run checks again: a move after Build can set a bad position.
	sess, err := place(Config{}, 1, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.MoveResponder(0, math.NaN(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); !errors.Is(err, ErrNonFinitePosition) {
		t.Errorf("Run after a NaN responder move: err = %v, want ErrNonFinitePosition", err)
	}
	if err := sess.MoveResponder(0, 3, 1); err != nil {
		t.Fatal(err)
	}
	sess.MoveInitiator(math.Inf(-1), 1)
	if _, err := sess.Run(); !errors.Is(err, ErrNonFinitePosition) {
		t.Errorf("Run after a -Inf initiator move: err = %v, want ErrNonFinitePosition", err)
	}
}

func TestQuickstartHallwayRound(t *testing.T) {
	sc := NewScenario(Config{
		Environment:      EnvHallway,
		Seed:             1,
		IdealTransceiver: true,
		// Anonymous ranging cannot tell responses from multipath peaks
		// (the paper's challenge IV), so cap detection at the known N−1.
		Detector: DetectorOptions{MaxResponses: 3},
	})
	sc.SetInitiator(2, 1.2)
	sc.AddResponder(0, 5, 1.2)
	sc.AddResponder(1, 8, 1.2)
	sc.AddResponder(2, 12, 1.2)
	session, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesOnAir != 4 {
		t.Fatalf("messages %d, want N = 4", res.MessagesOnAir)
	}
	if !closeTo(res.AnchorDistance, 3, 0.05) {
		t.Fatalf("anchor distance %g, want 3", res.AnchorDistance)
	}
	if len(res.Measurements) < 3 {
		t.Fatalf("%d measurements, want ≥ 3", len(res.Measurements))
	}
	// Anonymous mode: distances in arrival order are 3, 6, 10 m.
	want := []float64{3, 6, 10}
	for i, w := range want {
		m := res.Measurements[i]
		if m.ResponderID != -1 {
			t.Fatalf("anonymous round assigned ID %d", m.ResponderID)
		}
		if !closeTo(m.Distance, w, 0.2) {
			t.Fatalf("measurement %d: %g, want %g", i, m.Distance, w)
		}
	}
	if len(res.CIR) == 0 || res.CIRSampleInterval <= 0 {
		t.Fatal("CIR missing from result")
	}
}

func TestIdentifiedRoundWithShapesAndRPM(t *testing.T) {
	sc := NewScenario(Config{
		Environment:      EnvHallway,
		Seed:             5,
		MaxRange:         75,
		NumShapes:        3,
		IdealTransceiver: true,
	})
	sc.SetInitiator(1, 1.2)
	truth := map[int]float64{}
	for id := 0; id < 6; id++ {
		d := 2.5 + 1.5*float64(id)
		sc.AddResponder(id, 1+d, 1.2)
		truth[id] = d
	}
	session, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if session.Capacity() != 12 {
		t.Fatalf("capacity %d, want 12", session.Capacity())
	}
	if p := session.Plan(); p.NumSlots != 4 || p.NumShapes != 3 {
		t.Fatalf("plan %dx%d, want 4x3", p.NumSlots, p.NumShapes)
	}
	res, err := session.Run()
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]Measurement{}
	for _, m := range res.Measurements {
		found[m.ResponderID] = m
	}
	for id, want := range truth {
		m, ok := found[id]
		if !ok {
			t.Errorf("responder %d missing", id)
			continue
		}
		if !closeTo(m.Distance, want, 0.3) {
			t.Errorf("responder %d: %g, want %g", id, m.Distance, want)
		}
		if !closeTo(m.TrueDistance, want, 1e-9) {
			t.Errorf("responder %d: ground truth %g", id, m.TrueDistance)
		}
	}
}

func TestRunTWRPrecision(t *testing.T) {
	sc := NewScenario(Config{Environment: EnvOffice, Seed: 9})
	sc.SetInitiator(1, 1)
	sc.AddResponder(0, 4, 1)
	session, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	const n = 40
	for i := 0; i < n; i++ {
		d, err := session.RunTWR(0)
		if err != nil {
			t.Fatal(err)
		}
		e := d - 3
		sum += e
		sumSq += e * e
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.05 || std > 0.06 {
		t.Fatalf("TWR error mean %g std %g", mean, std)
	}
	if _, err := session.RunTWR(42); err == nil {
		t.Fatal("unknown responder accepted")
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() *Result {
		sc := NewScenario(Config{Environment: EnvHallway, Seed: 77})
		sc.SetInitiator(2, 1.2)
		sc.AddResponder(0, 6, 1.2)
		sc.AddResponder(1, 9, 1.2)
		s, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if len(a.Measurements) != len(b.Measurements) {
		t.Fatal("measurement counts differ across identical seeds")
	}
	for i := range a.Measurements {
		if a.Measurements[i] != b.Measurements[i] {
			t.Fatalf("measurement %d differs: %+v vs %+v", i, a.Measurements[i], b.Measurements[i])
		}
	}
}

func TestLocateFrom(t *testing.T) {
	anchors := map[int]Position{
		0: {0, 0}, 1: {10, 0}, 2: {10, 8}, 3: {0, 8},
	}
	truth := Position{4, 3}
	var ms []Measurement
	for id, a := range anchors {
		d := math.Hypot(truth.X-a.X, truth.Y-a.Y)
		ms = append(ms, Measurement{ResponderID: id, Distance: d})
	}
	pos, err := LocateFrom(ms, anchors)
	if err != nil {
		t.Fatal(err)
	}
	if math.Hypot(pos.X-truth.X, pos.Y-truth.Y) > 1e-6 {
		t.Fatalf("position %+v, want %+v", pos, truth)
	}
	// Too few matched anchors.
	if _, err := LocateFrom(ms[:2], anchors); err == nil {
		t.Fatal("two ranges accepted")
	}
}

func TestMaxSupportedResponders(t *testing.T) {
	got, err := MaxSupportedResponders(75, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Fatalf("capacity %d, want 12", got)
	}
	if _, err := MaxSupportedResponders(-5, 3); err == nil {
		t.Fatal("bad range accepted")
	}
	if NumPulseShapes != 108 {
		t.Fatalf("NumPulseShapes = %d", NumPulseShapes)
	}
}

func TestShapeRegister(t *testing.T) {
	sc := NewScenario(Config{NumShapes: 3})
	sc.SetInitiator(1, 1)
	sc.AddResponder(0, 4, 1)
	s, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := s.ShapeRegister(0)
	if err != nil || reg != 0x93 {
		t.Fatalf("shape 0 register 0x%02X, err %v", reg, err)
	}
	if _, err := s.ShapeRegister(9); err == nil {
		t.Fatal("out-of-range shape accepted")
	}
}

func TestMeasurementError(t *testing.T) {
	m := Measurement{Distance: 5.2, TrueDistance: 5}
	if !closeTo(m.Error(), 0.2, 1e-12) {
		t.Fatalf("error %g", m.Error())
	}
	if (Measurement{Distance: 3}).Error() != 0 {
		t.Fatal("unknown truth must yield zero error")
	}
	// A responder co-located with the initiator has TrueDistance 0 but
	// known ground truth: the error must not silently collapse to 0.
	co := Measurement{Distance: 0.4, TrueDistance: 0, HasTruth: true}
	if !closeTo(co.Error(), 0.4, 1e-12) {
		t.Fatalf("co-located error %g, want 0.4", co.Error())
	}
}

func TestRunSetsHasTruth(t *testing.T) {
	sc := NewScenario(Config{Environment: EnvHallway, Seed: 31})
	sc.SetInitiator(2, 1.2)
	sc.AddResponder(0, 6, 1.2)
	sc.AddResponder(1, 9, 1.2)
	s, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range r.Measurements {
		if m.ResponderID >= 0 && !m.HasTruth {
			t.Errorf("responder %d: matched measurement without HasTruth", m.ResponderID)
		}
	}
}

// TestDetectorModePassthrough: the Detector Mode/Workers options must
// reach the core detector, and every mode must measure the same
// distances on the same scenario.
func TestDetectorModePassthrough(t *testing.T) {
	build := func(mode core.DetectorMode, workers int) *Result {
		sc := NewScenario(Config{
			Environment:      EnvHallway,
			Seed:             7,
			IdealTransceiver: true,
			Detector:         DetectorOptions{MaxResponses: 2, Mode: mode, Workers: workers},
		})
		sc.SetInitiator(2, 1.2)
		sc.AddResponder(0, 5, 1.2)
		sc.AddResponder(1, 8, 1.2)
		session, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := session.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := build(core.ModeReference, 1)
	if len(ref.Measurements) < 2 {
		t.Fatalf("%d measurements, want ≥ 2", len(ref.Measurements))
	}
	got := build(core.ModeAuto, 2)
	if len(got.Measurements) != len(ref.Measurements) {
		t.Fatalf("default mode: %d measurements, reference %d", len(got.Measurements), len(ref.Measurements))
	}
	for i, m := range got.Measurements {
		if !closeTo(m.Distance, ref.Measurements[i].Distance, 1e-3) {
			t.Fatalf("default mode measurement %d: %g, reference %g",
				i, m.Distance, ref.Measurements[i].Distance)
		}
	}
	if _, err := NewScenario(Config{}).Build(); err == nil {
		t.Error("sanity: empty scenario accepted")
	}
	// Invalid detector options must surface from Build.
	bad := NewScenario(Config{Detector: DetectorOptions{Workers: -1}})
	bad.SetInitiator(1, 1)
	bad.AddResponder(0, 3, 1)
	if _, err := bad.Build(); err == nil {
		t.Error("negative Workers accepted")
	}
}
