package core_test

// Golden equivalence test for the frequency-domain detector paths: the
// expected responses below were captured from the seed (pre-plan-cache)
// implementation of Detector.Detect on fixed-seed CIRs. Both the default
// path and ModeReference must reproduce every delay, complex amplitude
// and template index to within 1e-9 relative, so all reproduced tables
// and figures are unchanged.

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/channel"
	"github.com/uwb-sim/concurrent-ranging/internal/core"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
	"github.com/uwb-sim/concurrent-ranging/internal/geom"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
	"github.com/uwb-sim/concurrent-ranging/internal/sim"
)

const goldenTs = dw1000.SampleInterval

type goldenPulse struct {
	reg   byte
	delay float64 // seconds
	amp   complex128
}

type goldenResponse struct {
	delay         float64
	amp           complex128
	templateIndex int
}

// goldenCIR renders pulses plus fixed-seed complex white noise into a full
// accumulator window, exactly as the seed capture program did.
func goldenCIR(t *testing.T, pulses []goldenPulse, noiseRMS float64, seed uint64) []complex128 {
	t.Helper()
	taps := make([]complex128, dw1000.CIRLength)
	for _, p := range pulses {
		s, err := pulse.ForRegister(p.reg)
		if err != nil {
			t.Fatal(err)
		}
		s.RenderInto(taps, p.amp, p.delay/goldenTs, goldenTs)
	}
	rng := rand.New(rand.NewPCG(seed, 17))
	sigma := noiseRMS / math.Sqrt2
	for i := range taps {
		taps[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return taps
}

// goldenSimCIR regenerates the three-responder hallway reception the
// micro-benchmarks use (seed 5), through the full radio model.
func goldenSimCIR(t testing.TB) []complex128 {
	t.Helper()
	net, err := sim.NewNetwork(sim.NetworkConfig{Environment: channel.Hallway(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	init, err := net.AddNode(sim.NodeConfig{ID: -1, Name: "init", Pos: geom.Point{X: 2, Y: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	var resps []*sim.Node
	for j, d := range []float64{3, 6, 10} {
		n, err := net.AddNode(sim.NodeConfig{ID: j, Pos: geom.Point{X: 2 + d, Y: 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, n)
	}
	round, err := net.RunConcurrentRound(init, resps, sim.RoundConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return round.Reception.CIR.Taps
}

// relClose reports |a-b| ≤ tol·max(|a|,|b|) with an absolute floor for
// values near zero.
func relClose(a, b, tol float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

func checkGolden(t *testing.T, got []core.Response, want []goldenResponse) {
	t.Helper()
	const tol = 1e-9
	if len(got) != len(want) {
		t.Fatalf("detected %d responses, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.TemplateIndex != w.templateIndex {
			t.Errorf("response %d: template %d, want %d", i, g.TemplateIndex, w.templateIndex)
		}
		if !relClose(g.Delay, w.delay, tol) {
			t.Errorf("response %d: delay %.17g, want %.17g", i, g.Delay, w.delay)
		}
		if d := cmplx.Abs(g.Amplitude - w.amp); d > tol*math.Max(1, cmplx.Abs(w.amp)) {
			t.Errorf("response %d: amplitude %v, want %v (|Δ| = %g)", i, g.Amplitude, w.amp, d)
		}
	}
}

// checkGoldenDetect runs the detection on the default path and on
// ModeReference, and checks both against the golden responses.
func checkGoldenDetect(t *testing.T, nShapes int, cfg core.DetectorConfig, taps []complex128, noiseRMS float64, want []goldenResponse) {
	t.Helper()
	bank, err := pulse.DefaultBank(goldenTs, nShapes)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []struct {
		name string
		mode core.DetectorMode
	}{{"default", core.ModeAuto}, {"reference", core.ModeReference}} {
		cfg.Mode = path.mode
		det, err := core.NewDetector(bank, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := det.Detect(taps, noiseRMS)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(path.name, func(t *testing.T) { checkGolden(t, got, want) })
	}
}

func TestDetectGoldenSinglePulse(t *testing.T) {
	taps := goldenCIR(t, []goldenPulse{
		{pulse.RegisterS1, 200.4 * goldenTs, complex(0.02, 0.01)},
	}, 1e-4, 1)
	checkGoldenDetect(t, 1, core.DetectorConfig{}, taps, 1e-4, []goldenResponse{
		{2.0072132152751607e-07, complex(0.020040219260835622, 0.010097389108172292), 0},
	})
}

func TestDetectGoldenThreeResponses(t *testing.T) {
	base := 12 * goldenTs
	d2 := base + 2*(6-3)/2.99792458e8
	d3 := base + 2*(10-3)/2.99792458e8
	taps := goldenCIR(t, []goldenPulse{
		{pulse.RegisterS1, base, 12e-4},
		{pulse.RegisterS1, d2, 6e-4},
		{pulse.RegisterS1, d3, 3.5e-4},
	}, 2e-5, 2)
	checkGoldenDetect(t, 1, core.DetectorConfig{MaxResponses: 3}, taps, 2e-5, []goldenResponse{
		{1.2019610535847272e-08, complex(0.001215882571204203, -4.1233393526067649e-06), 0},
		{3.2049331344670783e-08, complex(0.00061844704693786131, 2.449675606206834e-05), 0},
		{5.8698604183094544e-08, complex(0.00037565867037079871, -5.599672918645878e-06), 0},
	})
}

func TestDetectGoldenOverlappingResponses(t *testing.T) {
	taps := goldenCIR(t, []goldenPulse{
		{pulse.RegisterS1, 60 * goldenTs, complex(8e-4, 0)},
		{pulse.RegisterS1, 60*goldenTs + 2.5*goldenTs, complex(0, 6.5e-4)},
	}, 1e-5, 6)
	checkGoldenDetect(t, 1, core.DetectorConfig{MaxResponses: 2, Upsample: 8}, taps, 1e-5, []goldenResponse{
		{6.0098422268174743e-08, complex(0.00079868186230093853, 2.857124145983888e-05), 0},
		{6.2596906161984785e-08, complex(1.0908552504487728e-06, 0.00064758861166934933), 0},
	})
}

func TestDetectGoldenPulseShapes(t *testing.T) {
	taps := goldenCIR(t, []goldenPulse{
		{pulse.RegisterS1, 40 * goldenTs, 10e-4},
		{pulse.RegisterS3, 80 * goldenTs, 5e-4},
	}, 1e-5, 7)
	checkGoldenDetect(t, 3, core.DetectorConfig{MaxResponses: 2}, taps, 1e-5, []goldenResponse{
		{4.0061435255845283e-08, complex(0.00099856987663278019, -6.6137428194777506e-06), 0},
		{8.0133731586990257e-08, complex(0.00050184506221089009, 2.7384997949738152e-06), 2},
	})
}

func TestDetectGoldenGridMode(t *testing.T) {
	// DisableRefinement exercises the literal Sect. IV steps 3–5 path and
	// its grid-amplitude rescaling.
	taps := goldenCIR(t, []goldenPulse{
		{pulse.RegisterS1, 40 * goldenTs, 10e-4},
		{pulse.RegisterS3, 80 * goldenTs, 5e-4},
	}, 1e-5, 7)
	checkGoldenDetect(t, 3, core.DetectorConfig{MaxResponses: 2, DisableRefinement: true}, taps, 1e-5, []goldenResponse{
		{4.0064102564102562e-08, complex(0.00099964417198535505, -6.7312463625603998e-06), 0},
		{8.0128205128205124e-08, complex(0.0005018347501337477, 2.6972734517561695e-06), 2},
	})
}

func TestDetectGoldenSimulatedReception(t *testing.T) {
	// Full radio model: three responders in the hallway environment at
	// seed 5, automatic-mode detection with the 3-shape bank — twelve
	// responses including multipath.
	checkGoldenDetect(t, 3, core.DetectorConfig{}, goldenSimCIR(t), dw1000.DefaultNoiseRMS, []goldenResponse{
		{1.2038150725876326e-08, complex(0.0012021287477320529, 0.00041898577719392041), 0},
		{1.3573997379875022e-08, complex(-3.3419807534898176e-05, 0.00022710093528354762), 0},
		{1.51696393706246e-08, complex(4.5342550338300668e-05, -7.502880526935337e-05), 0},
		{1.6043970231748398e-08, complex(0.00019650983027835002, 9.150094037137181e-05), 0},
		{2.5362744985633823e-08, complex(-0.00013242863994480009, 3.8084201754303873e-05), 0},
		{3.0048681468088261e-08, complex(0.00045035452879003588, 0.00046889992733087658), 0},
		{3.1104798515923276e-08, complex(-0.00012627495434151446, 4.0735479618429582e-05), 0},
		{3.2404715627352897e-08, complex(3.4957553915006694e-05, -0.00016012557169606264), 0},
		{3.5391792425010325e-08, complex(-8.9065271892079802e-05, 7.8742410977037679e-05), 0},
		{3.7753025856320761e-08, complex(0.00012615254191286946, -2.5901762129529189e-05), 0},
		{5.9255464977536762e-08, complex(-0.0003884678446840061, -5.7790344548168866e-05), 0},
		{6.0645197191381825e-08, complex(0.00010808099717253443, 3.6598220289281036e-05), 0},
	})
}

func TestDetectRepeatedCallsAreDeterministic(t *testing.T) {
	// The cached scratch state must not leak between calls: detecting the
	// same CIR twice — with a differently-sized detection in between to
	// force a plan rebuild — returns identical responses.
	taps := goldenCIR(t, []goldenPulse{
		{pulse.RegisterS1, 40 * goldenTs, 10e-4},
		{pulse.RegisterS3, 80 * goldenTs, 5e-4},
	}, 1e-5, 7)
	bank, err := pulse.DefaultBank(goldenTs, 3)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(bank, core.DetectorConfig{MaxResponses: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := det.Detect(taps, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect(taps[:512], 1e-5); err != nil {
		t.Fatal(err)
	}
	second, err := det.Detect(taps, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("%d then %d responses", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("response %d: %+v then %+v", i, first[i], second[i])
		}
	}
}

// scaleEquivarianceCases are the golden CIRs with their detector set-ups.
func scaleEquivarianceCases(t *testing.T) []struct {
	name     string
	shapes   int
	cfg      core.DetectorConfig
	taps     []complex128
	noiseRMS float64
} {
	shapes := goldenCIR(t, []goldenPulse{
		{pulse.RegisterS1, 40 * goldenTs, 10e-4},
		{pulse.RegisterS3, 80 * goldenTs, 5e-4},
	}, 1e-5, 7)
	three := goldenCIR(t, []goldenPulse{
		{pulse.RegisterS1, 100 * goldenTs, 150},
		{pulse.RegisterS2, 160.4 * goldenTs, complex(0, 120)},
		{pulse.RegisterS3, 300.7 * goldenTs, complex(-100, 130)},
	}, 1, 3)
	return []struct {
		name     string
		shapes   int
		cfg      core.DetectorConfig
		taps     []complex128
		noiseRMS float64
	}{
		{"single", 1, core.DetectorConfig{}, goldenCIR(t, []goldenPulse{{pulse.RegisterS1, 200.4 * goldenTs, complex(0.02, 0.01)}}, 1e-4, 1), 1e-4},
		{"three", 3, core.DetectorConfig{}, three, 1},
		{"fullbank", pulse.NumShapes, core.DetectorConfig{}, three, 1},
		{"shapes", 3, core.DetectorConfig{MaxResponses: 2}, shapes, 1e-5},
		{"grid", 3, core.DetectorConfig{MaxResponses: 2, DisableRefinement: true}, shapes, 1e-5},
		{"simulated", 3, core.DetectorConfig{}, goldenSimCIR(t), dw1000.DefaultNoiseRMS},
	}
}

// scaled returns taps scaled by s, component by component.
func scaled(taps []complex128, s float64) []complex128 {
	out := make([]complex128, len(taps))
	for i, c := range taps {
		out[i] = complex(real(c)*s, imag(c)*s)
	}
	return out
}

// TestDetectScaleEquivariance: Detect(2^k·x, 2^k·σ) returns 2^k·Detect(x, σ)
// bit for bit for k in [−900, 900] on the golden CIRs, on the default path
// (the 108-shape bank's frame search included) and ModeReference and
// through DetectBatch, since the detector searches
// every CIR scaled to a largest component in [0.5, 1). At decimal scales
// 1e±150 to 1e±300, where the scaled input rounds, it returns the unscaled
// responses within rounding; before the scaling it returned phantoms from
// 1e152 up and nothing from 1e154 or below 1e-170.
func TestDetectScaleEquivariance(t *testing.T) {
	ks := []int{-900, -600, -513, -301, -64, -1, 1, 17, 300, 511, 777, 900}
	for _, c := range scaleEquivarianceCases(t) {
		bank, err := pulse.DefaultBank(goldenTs, c.shapes)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []core.DetectorMode{core.ModeAuto, core.ModeReference} {
			if c.shapes == pulse.NumShapes && mode == core.ModeReference {
				continue // the full bank's case is there for the frame search
			}
			cfg := c.cfg
			cfg.Mode = mode
			det, err := core.NewDetector(bank, cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := core.NewBatchDetector(bank, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			want, err := det.Detect(c.taps, c.noiseRMS)
			if err != nil || len(want) == 0 {
				t.Fatalf("%s, mode %d: %d responses, error %v", c.name, mode, len(want), err)
			}
			var inputs []core.BatchInput
			for _, k := range ks {
				s := math.Ldexp(1, k)
				in := core.BatchInput{Taps: scaled(c.taps, s), NoiseRMS: c.noiseRMS * s}
				got, err := det.Detect(in.Taps, in.NoiseRMS)
				if err != nil {
					t.Fatalf("%s, mode %d, 2^%d: %v", c.name, mode, k, err)
				}
				requireScaledResponses(t, fmt.Sprintf("%s, mode %d, 2^%d", c.name, mode, k), got, want, k)
				inputs = append(inputs, in)
			}
			for i, r := range batch.DetectBatch(inputs) {
				if r.Err != nil {
					t.Fatalf("%s, mode %d, batch 2^%d: %v", c.name, mode, ks[i], r.Err)
				}
				requireScaledResponses(t, fmt.Sprintf("%s, mode %d, batch 2^%d", c.name, mode, ks[i]), r.Responses, want, ks[i])
			}
			batch.Close()
			for _, s := range []float64{1e-300, 1e-200, 1e-150, 1e150, 1e200, 1e300} {
				got, err := det.Detect(scaled(c.taps, s), c.noiseRMS*s)
				if err != nil {
					t.Fatalf("%s, mode %d, %g: %v", c.name, mode, s, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s, mode %d, %g: %d responses, want %d", c.name, mode, s, len(got), len(want))
				}
				for i, w := range want {
					g := got[i]
					if g.TemplateIndex != w.TemplateIndex || !relClose(g.Delay, w.Delay, 1e-9) ||
						cmplx.Abs(g.Amplitude/complex(s, 0)-w.Amplitude) > 1e-9*cmplx.Abs(w.Amplitude) {
						t.Fatalf("%s, mode %d, %g: response %d = %+v, want %+v scaled", c.name, mode, s, i, g, w)
					}
				}
			}
		}
	}
}

// requireScaledResponses fails unless got is want with every amplitude
// scaled by 2^k, bit for bit.
func requireScaledResponses(t *testing.T, what string, got, want []core.Response, k int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d responses, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		w.Amplitude = complex(math.Ldexp(real(w.Amplitude), k), math.Ldexp(imag(w.Amplitude), k))
		g := got[i]
		if g.TemplateIndex != w.TemplateIndex || math.Float64bits(g.Delay) != math.Float64bits(w.Delay) ||
			math.Float64bits(real(g.Amplitude)) != math.Float64bits(real(w.Amplitude)) ||
			math.Float64bits(imag(g.Amplitude)) != math.Float64bits(imag(w.Amplitude)) {
			t.Fatalf("%s: response %d = %+v, want %+v", what, i, g, w)
		}
	}
}
