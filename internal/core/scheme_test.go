package core

import (
	"math"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestThresholdDetectorSeparatedResponses(t *testing.T) {
	const noise = 1e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	taps := makeCIR(t, []pulseAt{
		{s1, 30 * ts, 8e-4},
		{s1, 200 * ts, 5e-4},
	}, noise, 21)
	td := &ThresholdDetector{Shape: s1, SampleInterval: ts}
	got, err := td.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	// The scan re-arms on pulse tails (the baseline's known sloppiness),
	// so assert that both true peaks are among the detections rather
	// than an exact count.
	for _, want := range []float64{30 * ts, 200 * ts} {
		found := false
		for _, r := range got {
			if closeTo(r.Delay, want, ts) {
				found = true
			}
		}
		if !found {
			t.Fatalf("peak at %g samples not detected (got %d detections)", want/ts, len(got))
		}
	}
}

func TestThresholdDetectorMergesOverlappingResponses(t *testing.T) {
	// Sect. VI: two responses inside one pulse window fall into a single
	// N_p window and merge — the baseline's failure mode.
	const noise = 1e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	taps := makeCIR(t, []pulseAt{
		{s1, 60 * ts, 8e-4},
		{s1, 61 * ts, 6e-4},
	}, noise, 22)
	td := &ThresholdDetector{Shape: s1, SampleInterval: ts, MaxResponses: 2}
	got, err := td.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	// The two pulses are one sample apart: they merge inside a single N_p
	// window, so the second reported "peak" is a tail sample, not the
	// second response (which sits within one sample of the first).
	if len(got) == 2 && got[1].Delay-got[0].Delay < 2*ts {
		t.Fatalf("unexpectedly resolved %g-sample separation", (got[1].Delay-got[0].Delay)/ts)
	}
}

func TestThresholdDetectorValidation(t *testing.T) {
	s1 := shapeFor(t, pulse.RegisterS1)
	td := &ThresholdDetector{Shape: s1, SampleInterval: ts}
	if _, err := td.Detect(nil, 1e-5); err == nil {
		t.Error("empty CIR accepted")
	}
	if _, err := td.Detect(make([]complex128, 8), 0); err == nil {
		t.Error("zero noise accepted")
	}
	bad := &ThresholdDetector{Shape: s1}
	if _, err := bad.Detect(make([]complex128, 8), 1e-5); err == nil {
		t.Error("zero sample interval accepted")
	}
	neg := &ThresholdDetector{Shape: s1, SampleInterval: ts, ThresholdFactor: -1}
	if _, err := neg.Detect(make([]complex128, 8), 1e-5); err == nil {
		t.Error("negative factor accepted")
	}
}

func TestThresholdDetectorMaxResponses(t *testing.T) {
	const noise = 1e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	taps := makeCIR(t, []pulseAt{
		{s1, 30 * ts, 8e-4}, {s1, 100 * ts, 8e-4}, {s1, 200 * ts, 8e-4},
	}, noise, 23)
	td := &ThresholdDetector{Shape: s1, SampleInterval: ts, MaxResponses: 2}
	got, err := td.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("found %d, want capped 2", len(got))
	}
}

func TestTWRSpans(t *testing.T) {
	// A 10 m target: round trip = 2·τ + turnaround.
	tof := 10 / channel.SpeedOfLight
	turnaround := 290e-6
	d := TWRSpans(2*tof+turnaround, turnaround)
	if !closeTo(d, 10, 1e-9) {
		t.Fatalf("distance %g, want 10", d)
	}
}

func TestTWRTimestamps(t *testing.T) {
	// Build the four timestamps with two different clock phases; phases
	// cancel inside each span.
	tof := 7.5 / channel.SpeedOfLight
	turnaround := 290e-6
	initClock := dw1000.Clock{Phase: 1.234}
	respClock := dw1000.Clock{Phase: 9.876}
	t0 := 0.5 // sim time of INIT TX
	txInit := initClock.Timestamp(t0)
	rxInit := respClock.Timestamp(t0 + tof)
	txResp := respClock.Timestamp(t0 + tof + turnaround)
	rxResp := initClock.Timestamp(t0 + 2*tof + turnaround)
	d := TWRTimestamps(txInit, rxResp, rxInit, txResp)
	// Quantization to 15.65 ps limits accuracy to ~5 mm per stamp.
	if !closeTo(d, 7.5, 0.01) {
		t.Fatalf("distance %g, want 7.5 ± 1 cm", d)
	}
}

func TestTWRClockOffsetInducesKnownBias(t *testing.T) {
	// A +2 ppm responder clock stretches its measured turnaround,
	// shortening the estimate by ~c·Δ_RESP·offset/2 — the classic SS-TWR
	// drift error.
	tof := 5 / channel.SpeedOfLight
	turnaround := 290e-6
	respClock := dw1000.Clock{OffsetPPM: 2}
	var initClock dw1000.Clock
	t0 := 0.25
	d := TWRTimestamps(
		initClock.Timestamp(t0),
		initClock.Timestamp(t0+2*tof+turnaround),
		respClock.Timestamp(t0+tof),
		respClock.Timestamp(t0+tof+turnaround),
	)
	wantBias := -channel.SpeedOfLight * turnaround * 2e-6 / 2
	if !closeTo(d-5, wantBias, 0.01) {
		t.Fatalf("bias %g, want %g", d-5, wantBias)
	}
}

func TestConcurrentDistanceEq4(t *testing.T) {
	// Fig. 3/Sect. III example: d_TWR = 3 m, responder 2 at 6 m produces
	// Δτ = 2·(τ2−τ1).
	tau1 := 100e-9
	tau2 := tau1 + 2*(6.0-3.0)/channel.SpeedOfLight
	if got := ConcurrentDistance(3, tau2, tau1); !closeTo(got, 6, 1e-9) {
		t.Fatalf("d2 = %g, want 6", got)
	}
	// Same delay means same distance.
	if got := ConcurrentDistance(3, tau1, tau1); !closeTo(got, 3, 1e-12) {
		t.Fatalf("anchor distance %g", got)
	}
}

func TestNewSlotPlanPaperNumbers(t *testing.T) {
	// Sect. VIII: r_max = 75 m → N_RPM ≈ 4; with N_PS = 3 → N_max = 12.
	p, err := NewSlotPlan(75, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSlots != 4 {
		t.Fatalf("N_RPM = %d, want 4", p.NumSlots)
	}
	if p.Capacity() != 12 {
		t.Fatalf("N_max = %d, want 12", p.Capacity())
	}
	// r_max = 20 m with the full bank of ~100 shapes (108 usable register
	// values) → more than 1500 supported responders.
	p2, err := NewSlotPlan(20, pulse.NumShapes)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Capacity() <= 1500 {
		t.Fatalf("capacity %d, want > 1500", p2.Capacity())
	}
}

func TestNewSafeSlotPlanHalvesSlots(t *testing.T) {
	p, _ := NewSlotPlan(75, 3)
	s, err := NewSafeSlotPlan(75, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumSlots != p.NumSlots/2 {
		t.Fatalf("safe slots %d, paper slots %d", s.NumSlots, p.NumSlots)
	}
}

func TestSlotPlanValidation(t *testing.T) {
	if _, err := NewSlotPlan(-1, 3); err == nil {
		t.Error("negative range accepted")
	}
	if _, err := NewSlotPlan(75, 0); err == nil {
		t.Error("zero shapes accepted")
	}
	if _, err := NewSlotPlan(1e6, 3); err == nil {
		t.Error("range beyond CIR span accepted")
	}
	bad := SlotPlan{NumSlots: 4, NumShapes: 3, SlotWidth: MaxSlotDelay}
	if err := bad.Validate(); err == nil {
		t.Error("overfull plan accepted")
	}
}

func TestSlotPlanAssignRoundTrip(t *testing.T) {
	p, _ := NewSlotPlan(75, 3)
	seen := make(map[[2]int]bool)
	for id := 0; id < p.Capacity(); id++ {
		slot, shape, err := p.Assign(id)
		if err != nil {
			t.Fatal(err)
		}
		if slot < 0 || slot >= p.NumSlots || shape < 0 || shape >= p.NumShapes {
			t.Fatalf("id %d: slot %d shape %d out of range", id, slot, shape)
		}
		key := [2]int{slot, shape}
		if seen[key] {
			t.Fatalf("id %d: duplicate assignment %v", id, key)
		}
		seen[key] = true
		back, err := p.IDFor(slot, shape)
		if err != nil {
			t.Fatal(err)
		}
		if back != id {
			t.Fatalf("IDFor(Assign(%d)) = %d", id, back)
		}
	}
	if _, _, err := p.Assign(p.Capacity()); err == nil {
		t.Error("ID beyond capacity accepted")
	}
	if _, _, err := p.Assign(-1); err == nil {
		t.Error("negative ID accepted")
	}
	if _, err := p.IDFor(99, 0); err == nil {
		t.Error("bad slot accepted")
	}
	if _, err := p.IDFor(0, 99); err == nil {
		t.Error("bad shape accepted")
	}
}

func TestSlotPlanExtraDelayAndSlotOf(t *testing.T) {
	p, _ := NewSlotPlan(75, 3)
	if p.ExtraDelay(0) != 0 {
		t.Fatal("slot 0 must have zero extra delay")
	}
	for s := 0; s < p.NumSlots; s++ {
		delay := p.ExtraDelay(s)
		if got := p.SlotOf(delay + p.SlotWidth/4); got != s {
			t.Fatalf("slot %d classified as %d", s, got)
		}
	}
	// Clamping.
	if p.SlotOf(-1e-9) != 0 {
		t.Fatal("negative delay not clamped to slot 0")
	}
	if p.SlotOf(10*MaxSlotDelay) != p.NumSlots-1 {
		t.Fatal("overflow not clamped to last slot")
	}
	single := SingleSlot(2)
	if single.SlotOf(500e-9) != 0 {
		t.Fatal("single-slot plan must always classify slot 0")
	}
}

// mkResponse builds a Response at the given delay (seconds) with shape.
func mkResponse(delay float64, shape int, amp complex128) Response {
	return Response{Delay: delay, Amplitude: amp, TemplateIndex: shape}
}

const refDelay = dw1000.ReferenceIndex * dw1000.SampleInterval

func TestResolverAnonymousMode(t *testing.T) {
	r := &Resolver{Plan: SingleSlot(1)}
	d2delta := 2 * (6.0 - 3.0) / channel.SpeedOfLight
	ms, err := r.Resolve([]Response{
		mkResponse(refDelay, 0, 1),
		mkResponse(refDelay+d2delta, 0, 0.5),
	}, 0, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d measurements", len(ms))
	}
	if ms[0].ID != -1 || ms[1].ID != -1 {
		t.Fatal("anonymous mode must not assign IDs")
	}
	if !ms[0].Anchor || ms[1].Anchor {
		t.Fatal("anchor flag wrong")
	}
	if !closeTo(ms[0].Distance, 3, 1e-9) || !closeTo(ms[1].Distance, 6, 1e-9) {
		t.Fatalf("distances %g, %g", ms[0].Distance, ms[1].Distance)
	}
}

func TestResolverCombinedScheme(t *testing.T) {
	// Fig. 8 style: anchor ID 0 (slot 0, shape 0) at 4 m; responder ID 5
	// (slot 1, shape 1) at 7 m; responder ID 2 (slot 2, shape 0) at 5 m.
	plan, _ := NewSlotPlan(75, 3)
	r := &Resolver{Plan: plan}
	rel := func(d float64) float64 { return 2 * (d - 4.0) / channel.SpeedOfLight }
	responses := []Response{
		mkResponse(refDelay, 0, 1),                                // anchor, slot 0
		mkResponse(refDelay+rel(7)+plan.ExtraDelay(1), 1, 0.6),    // ID 5
		mkResponse(refDelay+rel(5)+plan.ExtraDelay(2), 0, 0.4),    // ID 2
		mkResponse(refDelay+rel(4.8)+plan.ExtraDelay(0), 0, 0.25), // anchor's MPC → dup ID 0
	}
	ms, err := r.Resolve(responses, 0, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("got %d measurements, want 3 (MPC deduplicated)", len(ms))
	}
	byID := map[int]Measurement{}
	for _, m := range ms {
		byID[m.ID] = m
	}
	if m, ok := byID[0]; !ok || !m.Anchor || !closeTo(m.Distance, 4, 1e-9) {
		t.Fatalf("anchor measurement %+v", byID[0])
	}
	if m, ok := byID[5]; !ok || m.Slot != 1 || m.Shape != 1 || !closeTo(m.Distance, 7, 1e-6) {
		t.Fatalf("ID 5 measurement %+v", byID[5])
	}
	if m, ok := byID[2]; !ok || m.Slot != 2 || !closeTo(m.Distance, 5, 1e-6) {
		t.Fatalf("ID 2 measurement %+v", byID[2])
	}
}

func TestResolverKeepsDirectPathPerID(t *testing.T) {
	plan := SingleSlot(2)
	r := &Resolver{Plan: plan}
	late := refDelay + 30e-9
	ms, err := r.Resolve([]Response{
		mkResponse(refDelay, 0, 1),
		mkResponse(late, 0, 1.1), // same shape+slot: the anchor's own MPC, within the margin
		mkResponse(refDelay+10e-9, 1, 0.5),
	}, 0, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d measurements, want 2", len(ms))
	}
	for _, m := range ms {
		if m.ID == 0 && !closeTo(m.Delay, refDelay, 1e-12) {
			t.Fatal("kept the MPC instead of the direct path")
		}
	}
}

// TestResolverDirectPathMargin: with TestResolverKeepsDirectPathPerID's
// layout, where ID 0's later response is 0.83 dB stronger than its
// earlier one, the earlier one is kept while the margin exceeds 0.83 dB
// (the 2 dB default, 1 dB) and the later, stronger one below it (0.5 dB).
func TestResolverDirectPathMargin(t *testing.T) {
	late := refDelay + 30e-9
	for _, c := range []struct {
		marginDB float64
		want     float64
	}{{0, refDelay}, {1, refDelay}, {0.5, late}} {
		r := &Resolver{Plan: SingleSlot(2), DirectPathMarginDB: c.marginDB}
		ms, err := r.Resolve([]Response{
			mkResponse(refDelay, 0, 1),
			mkResponse(late, 0, 1.1),
			mkResponse(refDelay+10e-9, 1, 0.5),
		}, 0, 3.0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 2 {
			t.Fatalf("margin %g dB: %d measurements, want 2", c.marginDB, len(ms))
		}
		for _, m := range ms {
			if m.ID == 0 && !closeTo(m.Delay, c.want, 1e-12) {
				t.Fatalf("margin %g dB: kept ID 0's response at %g s, want %g s", c.marginDB, m.Delay, c.want)
			}
		}
	}
}

func TestResolverStrongResponseBeatsWeakArtifact(t *testing.T) {
	// A faint subtraction artifact earlier in the slot must not shadow
	// the responder's real (much stronger) response.
	plan := SingleSlot(2)
	r := &Resolver{Plan: plan}
	real := refDelay + 40e-9
	ms, err := r.Resolve([]Response{
		mkResponse(refDelay, 1, 1),         // anchor (ID 1)
		mkResponse(refDelay+8e-9, 0, 0.05), // artifact mapped to ID 0
		mkResponse(real, 0, 0.4),           // real response of ID 0
	}, 1, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.ID == 0 && !closeTo(m.Delay, real, 1e-12) {
			t.Fatalf("artifact shadowed the real response: %+v", m)
		}
	}
}

func TestResolverAnchorShapePreference(t *testing.T) {
	// Two responses near the reference: the one with the anchor's
	// assigned shape wins the anchor role.
	plan := SingleSlot(2)
	r := &Resolver{Plan: plan}
	ms, err := r.Resolve([]Response{
		mkResponse(refDelay+1e-9, 1, 1),   // anchor (ID 1 = shape 1)
		mkResponse(refDelay-0.2e-9, 0, 1), // slightly nearer reference, wrong shape
	}, 1, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Anchor && m.Shape != 1 {
			t.Fatalf("anchor resolved to wrong shape: %+v", m)
		}
	}
}

func TestResolverErrors(t *testing.T) {
	plan := SingleSlot(1)
	r := &Resolver{Plan: plan}
	if _, err := r.Resolve(nil, 0, 3); err == nil {
		t.Error("empty responses accepted")
	}
	if _, err := r.Resolve([]Response{mkResponse(refDelay, 0, 1)}, 7, 3); err == nil {
		t.Error("anchor ID beyond capacity accepted")
	}
	// No response near the reference index.
	if _, err := r.Resolve([]Response{mkResponse(refDelay+500e-9, 0, 1)}, 0, 3); err == nil {
		t.Error("missing anchor accepted")
	}
	bad := &Resolver{Plan: SlotPlan{}}
	if _, err := bad.Resolve([]Response{mkResponse(refDelay, 0, 1)}, 0, 3); err == nil {
		t.Error("invalid plan accepted")
	}
}
