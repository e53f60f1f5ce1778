package core_test

// Flight-recorder contract tests: tracing must observe every search-and-
// subtract decision without perturbing it (bit-identical responses), emit
// one detect.round event per extraction round with the full decision
// payload, and stay silent under a sampled-out parent span.

import (
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

func TestDetectWithFlightRecorderIsBitIdentical(t *testing.T) {
	taps := goldenSimCIR(t)
	bank, err := pulse.DefaultBank(goldenTs, 1)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := core.NewDetector(bank, core.DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := core.NewDetector(bank, core.DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	traced.SetFlightRecorder(trace.New(trace.Config{}))

	const noiseRMS = 1e-4
	want, err := bare.Detect(taps, noiseRMS)
	if err != nil {
		t.Fatal(err)
	}
	got, err := traced.Detect(taps, noiseRMS)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("tracing changed the response count: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("response %d differs with tracing on:\n  got  %+v\n  want %+v",
				i, got[i], want[i])
		}
	}
}

func TestDetectEmitsRoundEvents(t *testing.T) {
	taps := goldenSimCIR(t)
	bank, err := pulse.DefaultBank(goldenTs, 2)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(bank, core.DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{})
	det.SetFlightRecorder(tr)

	responses, err := det.Detect(taps, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(responses) == 0 {
		t.Fatal("expected detections in the golden CIR")
	}

	evs := tr.Events()
	var begin, end *trace.Event
	var rounds []trace.Event
	for i := range evs {
		switch {
		case evs[i].Phase == trace.PhaseBegin && evs[i].Name == trace.SpanDetect:
			begin = &evs[i]
		case evs[i].Phase == trace.PhaseEnd:
			end = &evs[i]
		case evs[i].Phase == trace.PhaseInstant && evs[i].Name == trace.EventDetectRound:
			rounds = append(rounds, evs[i])
		}
	}
	if begin == nil || end == nil {
		t.Fatalf("missing detect span begin/end in %d events", len(evs))
	}
	if got := begin.Attrs["templates"]; got != bank.Len() {
		t.Errorf("begin templates = %v, want %d", got, bank.Len())
	}
	if len(rounds) != int(asInt(t, end.Attrs["rounds"])) {
		t.Errorf("%d detect.round events, end says %v rounds", len(rounds), end.Attrs["rounds"])
	}
	if got := asInt(t, end.Attrs["responses"]); got != len(responses) {
		t.Errorf("end responses = %d, want %d", got, len(responses))
	}
	// Automatic mode stops at the noise threshold; the last round must be
	// the rejection and the earlier ones acceptances.
	if got := end.Attrs[trace.AttrReason]; got != trace.ReasonBelowThreshold {
		t.Errorf("stop reason = %v, want %q", got, trace.ReasonBelowThreshold)
	}
	accepted := 0
	var lastFrac float64 = 2
	for i, ev := range rounds {
		if got := asInt(t, ev.Attrs[trace.AttrRound]); got != i {
			t.Errorf("round %d carries index %d", i, got)
		}
		scores, ok := ev.Attrs[trace.AttrScores].([]float64)
		if !ok || len(scores) != bank.Len() {
			t.Fatalf("round %d scores = %#v, want %d per-template scores", i, ev.Attrs[trace.AttrScores], bank.Len())
		}
		reason := ev.Attrs[trace.AttrReason]
		if reason == trace.ReasonAccepted {
			accepted++
			if ev.Attrs[trace.AttrAmplitude].(float64) <= 0 {
				t.Errorf("accepted round %d has non-positive amplitude", i)
			}
			if ev.Attrs[trace.AttrMarginDB].(float64) < 0 {
				t.Errorf("accepted round %d margin below zero", i)
			}
			// Each subtraction removes energy: the residual fraction
			// decreases monotonically across accepted rounds.
			frac := ev.Attrs[trace.AttrResidualFrac].(float64)
			if frac <= 0 || frac >= lastFrac {
				t.Errorf("round %d residual frac %g not in (0, %g)", i, frac, lastFrac)
			}
			lastFrac = frac
			tmpl := asInt(t, ev.Attrs[trace.AttrTemplate])
			if scores[tmpl] <= 0 {
				t.Errorf("round %d winning template %d has zero score", i, tmpl)
			}
		} else if i != len(rounds)-1 {
			t.Errorf("non-final round %d rejected with %v", i, reason)
		}
	}
	if accepted != len(responses) {
		t.Errorf("%d accepted rounds, %d responses", accepted, len(responses))
	}
}

// asInt converts the int-typed attrs the detector emits (which stay Go
// ints until JSON encoding) for comparison.
func asInt(t *testing.T, v any) int {
	t.Helper()
	switch n := v.(type) {
	case int:
		return n
	case float64:
		return int(n)
	default:
		t.Fatalf("attr %#v is not numeric", v)
		return 0
	}
}

func TestDetectSuppressedUnderInertParent(t *testing.T) {
	taps := goldenSimCIR(t)
	bank, err := pulse.DefaultBank(goldenTs, 1)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(bank, core.DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// SampleEvery 2: the first root records, the second is sampled out.
	tr := trace.New(trace.Config{SampleEvery: 2})
	det.SetFlightRecorder(tr)
	live := tr.Begin("session.round", nil)
	inert := tr.Begin("session.round", nil)
	if inert.Recording() {
		t.Fatal("second root should be sampled out")
	}
	live.EndWith(nil)
	base := tr.Stats().Events

	// Under the sampled-out parent the detector must not open a root span
	// of its own.
	det.SetTraceParent(inert)
	if _, err := det.Detect(taps, 1e-4); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().Events; got != base {
		t.Errorf("detect under inert parent emitted %d events", got-base)
	}
	det.SetTraceParent(nil)
	if _, err := det.Detect(taps, 1e-4); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().Events; got <= base {
		t.Error("detect without a parent should trace as its own root")
	}
}

// BenchmarkDetectWithFlightRecorder quantifies the tracing-on cost; the
// disabled-path gate is BenchmarkDetectNilRecorder (the flight recorder
// defaults to nil there, so that benchmark covers the added nil checks).
func BenchmarkDetectWithFlightRecorder(b *testing.B) {
	bank, err := pulse.DefaultBank(goldenTs, 1)
	if err != nil {
		b.Fatal(err)
	}
	det, err := core.NewDetector(bank, core.DetectorConfig{})
	if err != nil {
		b.Fatal(err)
	}
	det.SetFlightRecorder(trace.New(trace.Config{RingSize: 256}))
	taps := goldenSimCIR(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(taps, 1e-4); err != nil {
			b.Fatal(err)
		}
	}
}
