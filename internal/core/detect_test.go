package core

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

const ts = dw1000.SampleInterval

// pulseAt describes one synthetic response for test CIRs.
type pulseAt struct {
	shape pulse.Shape
	delay float64 // seconds relative to tap 0 (peak position)
	amp   complex128
}

// makeCIR renders the given pulses plus complex white noise of the given
// RMS into a 1016-tap CIR.
func makeCIR(t *testing.T, pulses []pulseAt, noiseRMS float64, seed uint64) []complex128 {
	t.Helper()
	taps := make([]complex128, dw1000.CIRLength)
	for _, p := range pulses {
		p.shape.RenderInto(taps, p.amp, p.delay/ts, ts)
	}
	if noiseRMS > 0 {
		rng := rand.New(rand.NewPCG(seed, 17))
		sigma := noiseRMS / math.Sqrt2
		for i := range taps {
			taps[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
	}
	return taps
}

func shapeFor(t *testing.T, reg byte) pulse.Shape {
	t.Helper()
	s, err := pulse.ForRegister(reg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestDetector(t *testing.T, nShapes int, cfg DetectorConfig) *Detector {
	t.Helper()
	bank, err := pulse.DefaultBank(ts, nShapes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(bank, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDetectorValidation(t *testing.T) {
	bank, _ := pulse.DefaultBank(ts, 1)
	if _, err := NewDetector(nil, DetectorConfig{}); err == nil {
		t.Error("nil bank accepted")
	}
	if _, err := NewDetector(bank, DetectorConfig{Upsample: -1}); err == nil {
		t.Error("negative upsample accepted")
	}
	if _, err := NewDetector(bank, DetectorConfig{ThresholdFactor: -2}); err == nil {
		t.Error("negative threshold accepted")
	}
	// NaN never stops extraction and +Inf silently detects nothing.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewDetector(bank, DetectorConfig{ThresholdFactor: f}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("threshold factor %g: err = %v, want ErrNonFinite", f, err)
		}
	}
	if _, err := NewDetector(bank, DetectorConfig{MaxResponses: -1}); err == nil {
		t.Error("negative MaxResponses accepted")
	}
	if _, err := NewDetector(bank, DetectorConfig{DisableThreshold: true}); err == nil {
		t.Error("automatic mode without threshold accepted")
	}
	d, err := NewDetector(bank, DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.cfg
	if cfg.Upsample != DefaultUpsample || cfg.ThresholdFactor != DefaultThresholdFactor ||
		cfg.MaxIterations != DefaultMaxIterations {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestDetectSinglePulse(t *testing.T) {
	const noise = 1e-4
	s1 := shapeFor(t, pulse.RegisterS1)
	amp := complex(0.02, 0.01)
	delay := 200.4 * ts
	taps := makeCIR(t, []pulseAt{{s1, delay, amp}}, noise, 1)
	d := newTestDetector(t, 1, DetectorConfig{})
	got, err := d.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("detected %d responses, want 1", len(got))
	}
	// Delay recovered within one up-sampled sample.
	if e := math.Abs(got[0].Delay - delay); e > ts/float64(DefaultUpsample) {
		t.Fatalf("delay error %g s", e)
	}
	// Amplitude magnitude within 10%.
	if e := math.Abs(got[0].Magnitude() - cmplx.Abs(amp)); e > 0.1*cmplx.Abs(amp) {
		t.Fatalf("amplitude %g, want %g", got[0].Magnitude(), cmplx.Abs(amp))
	}
}

func TestDetectThreeSeparatedResponses(t *testing.T) {
	// The Fig. 4 situation: three responders at 3/6/10 m from the
	// initiator produce three CIR peaks separated by the doubled extra
	// path delays.
	const noise = 2e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	base := 12 * ts
	d2 := base + 2*(6-3)/2.99792458e8
	d3 := base + 2*(10-3)/2.99792458e8
	taps := makeCIR(t, []pulseAt{
		{s1, base, 12e-4},
		{s1, d2, 6e-4},
		{s1, d3, 3.5e-4},
	}, noise, 2)
	d := newTestDetector(t, 1, DetectorConfig{MaxResponses: 3})
	got, err := d.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("detected %d responses, want 3", len(got))
	}
	want := []float64{base, d2, d3}
	for i, w := range want {
		if e := math.Abs(got[i].Delay - w); e > ts/2 {
			t.Fatalf("response %d delay error %g", i, e)
		}
	}
	// Sorted ascending regardless of amplitude order.
	for i := 1; i < len(got); i++ {
		if got[i].Delay < got[i-1].Delay {
			t.Fatal("responses not sorted by delay")
		}
	}
}

func TestDetectAutomaticModeStopsAtNoise(t *testing.T) {
	// With MaxResponses = 0 the detector must find exactly the two real
	// responses and then stop at the noise floor (challenge I: run-time
	// automatic detection).
	const noise = 2e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	taps := makeCIR(t, []pulseAt{
		{s1, 40 * ts, 9e-4},
		{s1, 300 * ts, 4e-4},
	}, noise, 3)
	d := newTestDetector(t, 1, DetectorConfig{})
	got, err := d.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("automatic mode found %d responses, want 2", len(got))
	}
}

func TestDetectAmplitudeIndependence(t *testing.T) {
	// Challenge IV: detection must work regardless of absolute amplitude.
	// A 30 dB weaker pair of responses is detected just as well.
	s1 := shapeFor(t, pulse.RegisterS1)
	for _, scale := range []float64{1, 0.03} {
		noise := 1e-6
		taps := makeCIR(t, []pulseAt{
			{s1, 50 * ts, complex(2e-3*scale, 0)},
			{s1, 90 * ts, complex(1e-3*scale, 0)},
		}, noise, 4)
		d := newTestDetector(t, 1, DetectorConfig{})
		got, err := d.Detect(taps, noise)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("scale %g: found %d responses, want 2", scale, len(got))
		}
	}
}

func TestDetectWeakerResponseBeforeStrongMultipath(t *testing.T) {
	// Challenge IV continued: a responder whose direct path is weaker
	// than another responder's multipath must still be detected; the
	// detector reports peaks by delay, not by assuming amplitude order.
	const noise = 1e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	taps := makeCIR(t, []pulseAt{
		{s1, 30 * ts, 3e-4},  // weak direct path of responder A
		{s1, 120 * ts, 9e-4}, // strong responder B
	}, noise, 5)
	d := newTestDetector(t, 1, DetectorConfig{MaxResponses: 2})
	got, err := d.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("found %d", len(got))
	}
	if got[0].Delay > got[1].Delay {
		t.Fatal("not sorted")
	}
	if got[0].Magnitude() >= got[1].Magnitude() {
		t.Fatal("test setup broken: first response should be the weak one")
	}
}

func TestDetectOverlappingResponses(t *testing.T) {
	// Sect. VI: two responders at the same distance whose responses
	// overlap within a pulse duration. Search and subtract must resolve
	// both.
	const noise = 1e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	base := 60 * ts
	sep := 2.5 * ts // well inside one pulse duration (~9 samples)
	taps := makeCIR(t, []pulseAt{
		{s1, base, complex(8e-4, 0)},
		{s1, base + sep, complex(0, 6.5e-4)},
	}, noise, 6)
	d := newTestDetector(t, 1, DetectorConfig{MaxResponses: 2, Upsample: 8})
	got, err := d.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("found %d responses, want 2", len(got))
	}
	if e := math.Abs(got[1].Delay - got[0].Delay - sep); e > ts {
		t.Fatalf("separation error %g", e)
	}
}

func TestDetectIdentifiesPulseShapes(t *testing.T) {
	// Sect. V / Fig. 6: responders using different TC_PGDELAY values are
	// identified by the template with the maximum response amplitude.
	const noise = 1e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	s3 := shapeFor(t, pulse.RegisterS3)
	taps := makeCIR(t, []pulseAt{
		{s1, 40 * ts, 10e-4}, // responder 1: default shape (4 m)
		{s3, 80 * ts, 5e-4},  // responder 2: wide shape (10 m)
	}, noise, 7)
	d := newTestDetector(t, 3, DetectorConfig{MaxResponses: 2})
	got, err := d.Detect(taps, noise)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("found %d responses", len(got))
	}
	if got[0].TemplateIndex != 0 {
		t.Fatalf("first response identified as template %d, want 0 (s1)", got[0].TemplateIndex)
	}
	if got[1].TemplateIndex != 2 {
		t.Fatalf("second response identified as template %d, want 2 (s3)", got[1].TemplateIndex)
	}
}

func TestDetectErrors(t *testing.T) {
	d := newTestDetector(t, 1, DetectorConfig{})
	if _, err := d.Detect(nil, 1e-5); err == nil {
		t.Error("empty CIR accepted")
	}
	if _, err := d.Detect(make([]complex128, 64), 0); err == nil {
		t.Error("zero noise RMS accepted for thresholded detection")
	}
}

// TestDetectRejectsNonFiniteInput: a NaN or infinite tap (in every
// mode) or noise RMS (when thresholded) fails with ErrNonFinite on both
// search paths rather than yielding phantom or missing responses; in a
// batch only the bad items fail.
func TestDetectRejectsNonFiniteInput(t *testing.T) {
	const noise = 1e-4
	nan, inf := math.NaN(), math.Inf(1)
	s1, s2, s3 := shapeFor(t, pulse.RegisterS1), shapeFor(t, pulse.RegisterS2), shapeFor(t, pulse.RegisterS3)
	clean := makeCIR(t, []pulseAt{
		{s1, 300 * ts, 0.01},
		{s2, 420 * ts, 0.008i},
		{s3, 560 * ts, -0.006},
	}, noise, 12)
	withTap := func(i int, c complex128) []complex128 {
		taps := slices.Clone(clean)
		taps[i] = c
		return taps
	}
	cases := []struct {
		name        string
		taps        []complex128
		noiseRMS    float64
		noThreshold bool
	}{
		{"NaN noise", clean, nan, false},
		{"+Inf noise", clean, inf, false},
		{"-Inf noise", clean, -inf, false},
		{"NaN tap", withTap(300, complex(nan, 0)), noise, false},
		{"+Inf tap", withTap(0, complex(0, inf)), noise, false},
		{"-Inf tap", withTap(dw1000.CIRLength-1, complex(-inf, 0)), noise, false},
		{"NaN tap, threshold off", withTap(420, complex(nan, nan)), noise, true},
	}
	bank, err := pulse.DefaultBank(ts, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []DetectorMode{ModeReference, ModeSpectral} {
		for _, c := range cases {
			cfg := DetectorConfig{Mode: mode}
			if c.noThreshold {
				cfg.DisableThreshold, cfg.MaxResponses = true, 3
			}
			det, err := NewDetector(bank, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := det.Detect(c.taps, c.noiseRMS)
			if !errors.Is(err, ErrNonFinite) || got != nil {
				t.Errorf("mode %d, %s: got %d responses, err %v; want ErrNonFinite", mode, c.name, len(got), err)
			}
		}
		// The noise RMS is unused with the threshold off, so a NaN one
		// is no error there.
		det, err := NewDetector(bank, DetectorConfig{Mode: mode, DisableThreshold: true, MaxResponses: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := det.Detect(clean, nan); err != nil || len(got) != 3 {
			t.Errorf("mode %d, threshold off: NaN noise gave %d responses, err %v", mode, len(got), err)
		}
	}

	eng, err := NewBatchDetector(bank, DetectorConfig{Mode: ModeSpectral}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref, err := NewDetector(bank, DetectorConfig{Mode: ModeSpectral})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Detect(clean, noise)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []BatchInput{{Taps: clean, NoiseRMS: noise}}
	for _, c := range cases[:6] {
		inputs = append(inputs, BatchInput{Taps: c.taps, NoiseRMS: c.noiseRMS}, BatchInput{Taps: clean, NoiseRMS: noise})
	}
	for i, r := range eng.DetectBatch(inputs) {
		if i%2 == 1 {
			if !errors.Is(r.Err, ErrNonFinite) || len(r.Responses) != 0 {
				t.Errorf("batch item %d (%s): %d responses, err %v; want ErrNonFinite", i, cases[i/2].name, len(r.Responses), r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("batch item %d: %v", i, r.Err)
		}
		requireSameResponses(t, "clean neighbor", r.Responses, want)
	}
}

func TestDetectEmptyCIRYieldsNothing(t *testing.T) {
	taps := makeCIR(t, nil, 1e-5, 8)
	d := newTestDetector(t, 1, DetectorConfig{})
	got, err := d.Detect(taps, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("noise-only CIR produced %d responses", len(got))
	}
}

func TestMatchedFilterOutputs(t *testing.T) {
	const noise = 1e-5
	s1 := shapeFor(t, pulse.RegisterS1)
	taps := makeCIR(t, []pulseAt{{s1, 100 * ts, 1e-3}}, noise, 9)
	d := newTestDetector(t, 3, DetectorConfig{})
	outs, tsUp, err := d.MatchedFilterOutputs(taps)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("outputs for %d templates", len(outs))
	}
	if tsUp != ts/DefaultUpsample {
		t.Fatalf("tsUp = %g", tsUp)
	}
	// The matched template's peak must beat the mismatched ones.
	peak := func(v []float64) float64 {
		m := 0.0
		for _, x := range v {
			m = math.Max(m, x)
		}
		return m
	}
	if peak(outs[0]) <= peak(outs[1]) || peak(outs[0]) <= peak(outs[2]) {
		t.Fatal("matched template does not have the strongest response")
	}
}
