package core

// Equivalence and bit-identity tests for the default search path and the
// per-round search machinery: the interval-based suppression must match
// the seed's per-sample predicate exactly, the fused FilterPeak scan must
// match FilterInto + maxOutsideSuppression exactly, the parallel template
// fan-out must match the serial scan exactly, and the default detector
// must match the reference detector within 1e-9 on the Sect. VI
// equal-distance concurrent-responder scenarios and on CIRs shorter than
// the templates.

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// maxOutsideSuppression returns the index and magnitude of the largest
// |y| (an up-sampled-domain matched-filter output) whose implied peak
// position is not suppressed, given the round's precomputed q-space
// intervals. It returns (-1, 0) when everything is suppressed. Detect's
// hot path fuses this scan into the banks' inverse-FFT output pass
// (FilterPeak/ScanBest); this standalone form is the readable reference
// the fused scans are tested against.
func (d *Detector) maxOutsideSuppression(y []complex128, center int, skipQ []dsp.SkipInterval) (int, float64) {
	bestIdx, bestSq := -1, 0.0
	si := 0
	for i := 0; i < len(y); i++ {
		q := i + center
		for si < len(skipQ) && skipQ[si].Hi < q {
			si++
		}
		if si < len(skipQ) && skipQ[si].Lo <= q {
			i = skipQ[si].Hi - center // loop increment moves past the interval
			continue
		}
		v := y[i]
		sq := real(v)*real(v) + imag(v)*imag(v)
		if sq > bestSq {
			bestIdx, bestSq = i, sq
		}
	}
	if bestIdx < 0 {
		return -1, 0
	}
	return bestIdx, math.Sqrt(bestSq)
}

// naiveMaxOutsideSuppression is the seed implementation of the suppressed
// peak search: every sample re-checks every extracted position.
func naiveMaxOutsideSuppression(y []complex128, center int, extracted []float64, upsample int) (int, float64) {
	bestIdx, bestSq := -1, 0.0
	for i, v := range y {
		sq := real(v)*real(v) + imag(v)*imag(v)
		if sq <= bestSq {
			continue
		}
		pos := float64(i+center) / float64(upsample)
		suppressed := false
		for _, p := range extracted {
			if math.Abs(pos-p) < suppressionRadius {
				suppressed = true
				break
			}
		}
		if !suppressed {
			bestIdx, bestSq = i, sq
		}
	}
	if bestIdx < 0 {
		return -1, 0
	}
	return bestIdx, math.Sqrt(bestSq)
}

// TestSuppressedIntervalsMatchNaive: the per-round interval precompute
// (O(U·n + k)) must reproduce the per-sample predicate (O(U·n·k))
// bit-identically, including tightly clustered and overlapping guards.
func TestSuppressedIntervalsMatchNaive(t *testing.T) {
	bank, err := pulse.DefaultBank(ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(bank, DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1016 * DefaultUpsample
	for seed := uint64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewPCG(seed, 31))
		y := make([]complex128, n)
		for i := range y {
			y[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		// Many extracted paths, including clusters closer than the
		// suppression diameter so their intervals overlap and merge.
		k := 20 + r.IntN(30)
		extracted := make([]float64, k)
		base := r.Float64() * 900
		for i := range extracted {
			if i%3 == 0 {
				base = r.Float64() * 1000
			}
			extracted[i] = base + r.Float64()*0.8
		}
		skipQ := appendSuppressedIntervals(nil, extracted, det.cfg.Upsample)
		for _, center := range []int{0, 61, 122} {
			gotIdx, gotMag := det.maxOutsideSuppression(y, center, skipQ)
			wantIdx, wantMag := naiveMaxOutsideSuppression(y, center, extracted, det.cfg.Upsample)
			if gotIdx != wantIdx || gotMag != wantMag {
				t.Fatalf("seed %d center %d: interval scan (%d, %v) != naive (%d, %v) with %d extracted",
					seed, center, gotIdx, gotMag, wantIdx, wantMag, k)
			}
		}
	}
}

// equivTrain renders a random pulse train into a CIR for the equivalence
// tests and returns the taps.
func equivTrain(bank *pulse.Bank, seed uint64, responders int, noise float64) []complex128 {
	r := rand.New(rand.NewPCG(seed, 41))
	taps := make([]complex128, 1016)
	// Sect. VI case: concurrent responders at (nearly) equal distance —
	// overlapping pulses distinguished only by shape. Their arrival
	// times still spread over the DW1000 delayed-TX quantization step
	// (~8 ns, Sect. III), like the paper's equal-distance experiment.
	pos := 80 + r.Float64()*800
	for i := 0; i < responders; i++ {
		mag := noise * (30 + r.Float64()*300)
		ph := r.Float64() * 2 * math.Pi
		jitter := (r.Float64() - 0.5) * 8
		bank.Shape(i%bank.Len()).RenderInto(taps,
			complex(mag*math.Cos(ph), mag*math.Sin(ph)), pos+jitter, ts)
	}
	sigma := noise / math.Sqrt2
	rr := rand.New(rand.NewPCG(seed, 42))
	for i := range taps {
		taps[i] += complex(rr.NormFloat64()*sigma, rr.NormFloat64()*sigma)
	}
	return taps
}

// TestDetectSpectralMatchesReference: across seeded scenarios of 1–4
// overlapping equal-distance responders (Sect. VI), on the 3-, 4- and
// 108-shape banks, the default path must agree with the reference path
// on response count, template identity, delay and amplitude to within
// 1e-9 relative. Its up-sampled residual is the reference's up to
// rounding, so there is no scenario where the two may legitimately
// differ.
func TestDetectSpectralMatchesReference(t *testing.T) {
	const noise = 1.4e-5
	for _, shapes := range []int{3, 4, pulse.NumShapes} {
		bank, err := pulse.DefaultBank(ts, shapes)
		if err != nil {
			t.Fatal(err)
		}
		scenarios := 0
		for responders := 1; responders <= 4; responders++ {
			// The paper's N−1-strongest mode: extraction stops after the
			// genuine responses.
			cfg := DetectorConfig{MaxResponses: responders}
			fast, err := NewDetector(bank, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Mode = ModeReference
			ref, err := NewDetector(bank, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 12; seed++ {
				taps := equivTrain(bank, seed*4+uint64(responders), responders, noise)
				label := fmt.Sprintf("%d shapes, seed %d, %d responders", shapes, seed, responders)
				requireDetectionsAgree(t, label, fast, ref, taps, noise, 1e-9)
				scenarios++
			}
		}
		if scenarios != 48 {
			t.Fatalf("%d shapes: ran %d scenarios, want 48", shapes, scenarios)
		}
	}
}

// TestDetectShortCIRsMatchReference: a CIR shorter than the longest
// up-sampled template (under 29 taps on the 108-shape bank) must detect
// on the default path, which sizes its transform for the template, and
// agree with the reference path, which filters short signals directly.
// The pulse is clipped by the window, so the refinement's optimum often
// sits on its ±1/U bracket edge, and the two paths' last-digit coarse
// differences move it by up to the golden-section stopping width (1e-7
// samples): the comparison allows 1e-6 relative. Only the strongest
// response is compared; past it, an automatic-mode run mines the
// clipped pulse's remainder, where such differences change the order of
// extraction.
//
// A second pair of detectors runs three extractions with the threshold
// off on the 3-shape bank, four CIRs per length, and must agree on every
// response within the same 1e-6. From 24 taps on, the up-sampled window
// holds every template's wrap (L_t − 1 ≤ N), so the default path keeps
// its outputs and updates them after each subtraction, whose wrapped
// terms reach the window's last outputs.
func TestDetectShortCIRsMatchReference(t *testing.T) {
	const noise = 1e-4
	for _, shapes := range []int{3, pulse.NumShapes} {
		bank, err := pulse.DefaultBank(ts, shapes)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewDetector(bank, DetectorConfig{MaxResponses: 1})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewDetector(bank, DetectorConfig{MaxResponses: 1, Mode: ModeReference})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewPCG(uint64(shapes), 43))
		detected := 0
		for n := 1; n <= 40; n++ {
			taps := make([]complex128, n)
			bank.Shape(r.IntN(bank.Len())).RenderInto(taps,
				cmplx.Rect(0.01*(1+r.Float64()), r.Float64()*2*math.Pi), r.Float64()*float64(n), ts)
			for i := range taps {
				taps[i] += complex(r.NormFloat64(), r.NormFloat64()) * complex(noise/math.Sqrt2, 0)
			}
			detected += requireDetectionsAgree(t, fmt.Sprintf("%d shapes, %d taps", shapes, n), fast, ref, taps, noise, 1e-6)
		}
		// A pulse peaking less than a template half-width into the
		// window has no matched-filter output at its peak, so some
		// windows detect nothing on either path; most must detect it.
		if detected < 20 {
			t.Errorf("%d shapes: %d of 40 short CIRs detected their pulse", shapes, detected)
		}
	}

	bank, err := pulse.DefaultBank(ts, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DetectorConfig{MaxResponses: 3, DisableThreshold: true}
	fast, err := NewDetector(bank, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = ModeReference
	ref, err := NewDetector(bank, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tracked := 0
	for seed := uint64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewPCG(seed, 43))
		for n := 1; n <= 40; n++ {
			taps := make([]complex128, n)
			bank.Shape(r.IntN(bank.Len())).RenderInto(taps,
				cmplx.Rect(0.01*(1+r.Float64()), r.Float64()*2*math.Pi), r.Float64()*float64(n), ts)
			for i := range taps {
				taps[i] += complex(r.NormFloat64(), r.NormFloat64()) * complex(noise/math.Sqrt2, 0)
			}
			requireDetectionsAgree(t, fmt.Sprintf("%d taps, seed %d", n, seed), fast, ref, taps, noise, 1e-6)
			if fast.tracked != nil {
				tracked++
			}
		}
	}
	if tracked != 4*17 {
		t.Errorf("%d of the 160 CIRs ran on maintained outputs, want the 68 of 24–40 taps", tracked)
	}
}

// requireDetectionsAgree runs both detectors on taps and requires the
// same response count and templates, with delays (in sample units) and
// amplitudes within tol relative (with an absolute floor of tol below
// 1). It returns the response count.
func requireDetectionsAgree(t *testing.T, label string, fast, ref *Detector, taps []complex128, noise, tol float64) int {
	t.Helper()
	want, err := ref.Detect(taps, noise)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	got, err := fast.Detect(taps, noise)
	if err != nil {
		t.Fatalf("%s: default: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: default path found %d responses, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].TemplateIndex != want[i].TemplateIndex {
			t.Errorf("%s, response %d: template %d != %d", label, i, got[i].TemplateIndex, want[i].TemplateIndex)
		}
		// Delays compared in sample units: an absolute floor in seconds
		// would hide whole-sample drift.
		dOK := relCloseT(got[i].Delay/ts, want[i].Delay/ts, tol)
		aOK := cmplx.Abs(got[i].Amplitude-want[i].Amplitude) <= tol*math.Max(1, cmplx.Abs(want[i].Amplitude))
		if !dOK || !aOK {
			t.Errorf("%s, response %d: (%.17g, %v) != (%.17g, %v)",
				label, i, got[i].Delay, got[i].Amplitude, want[i].Delay, want[i].Amplitude)
		}
	}
	return len(got)
}

// relCloseT mirrors the golden tests' tolerance: relative with an
// absolute floor of tol for values below 1.
func relCloseT(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestFilterPeakMatchesScan: the fused inverse-FFT peak scan must be
// bit-identical to FilterInto followed by the standalone suppressed scan,
// for every template and with many extracted paths.
func TestFilterPeakMatchesScan(t *testing.T) {
	bank, err := pulse.DefaultBank(ts, 4)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(bank, DetectorConfig{Mode: ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	taps := equivTrain(bank, 99, 4, 1.4e-5)
	if err := det.ensureState(len(taps)); err != nil {
		t.Fatal(err)
	}
	up := det.upsample.Execute(det.up, taps)
	if err := det.fbank.Transform(up); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(5, 51))
	extracted := make([]float64, 35)
	for i := range extracted {
		extracted[i] = r.Float64() * 1016
	}
	skipQ := appendSuppressedIntervals(nil, extracted, det.cfg.Upsample)
	n := len(up)
	scratch := det.fbank.NewScratch()
	out := make([]complex128, n)
	for tmpl := range det.templates {
		y, err := det.fbank.FilterInto(out, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		wantIdx, wantMag := det.maxOutsideSuppression(y, det.centers[tmpl], skipQ)
		skip := appendShifted(nil, skipQ, det.centers[tmpl], n)
		gotIdx, gotSq, y3, err := det.fbank.FilterPeak(scratch, tmpl, skip)
		if err != nil {
			t.Fatal(err)
		}
		if gotIdx != wantIdx {
			t.Fatalf("template %d: fused scan index %d, separate scan %d", tmpl, gotIdx, wantIdx)
		}
		if math.Sqrt(gotSq) != wantMag {
			t.Errorf("template %d: fused |y| %v != %v", tmpl, math.Sqrt(gotSq), wantMag)
		}
		if y3[1] != y[gotIdx] {
			t.Errorf("template %d: y3 center %v != output %v", tmpl, y3[1], y[gotIdx])
		}
		if gotIdx > 0 && y3[0] != y[gotIdx-1] {
			t.Errorf("template %d: y3 left %v != output %v", tmpl, y3[0], y[gotIdx-1])
		}
		if gotIdx < n-1 && y3[2] != y[gotIdx+1] {
			t.Errorf("template %d: y3 right %v != output %v", tmpl, y3[2], y[gotIdx+1])
		}
	}
}

// TestMatchedFilterOutputsSpectralMatchesReference: a default-path
// detector holds no MatchedFilterBank, so MatchedFilterOutputs builds one
// for the call; its curves must be bit-identical to a reference-path
// detector's on the same bank and CIR.
func TestMatchedFilterOutputsSpectralMatchesReference(t *testing.T) {
	bank := newTestBank(t, 12)
	taps := equivTrain(bank, 3, 3, 1.4e-5)
	spectral, err := NewDetector(bank, DetectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if spectral.fbank != nil || spectral.frames == nil {
		t.Fatal("the default detector should search through the frame bank")
	}
	reference, err := NewDetector(bank, DetectorConfig{Mode: ModeReference})
	if err != nil {
		t.Fatal(err)
	}
	got, gotTs, err := spectral.MatchedFilterOutputs(taps)
	if err != nil {
		t.Fatal(err)
	}
	want, wantTs, err := reference.MatchedFilterOutputs(taps)
	if err != nil {
		t.Fatal(err)
	}
	if gotTs != wantTs || len(got) != len(want) {
		t.Fatalf("spectral: %d curves at %g s, reference: %d at %g s", len(got), gotTs, len(want), wantTs)
	}
	for tmpl := range want {
		if len(got[tmpl]) != len(want[tmpl]) {
			t.Fatalf("template %d: %d samples, want %d", tmpl, len(got[tmpl]), len(want[tmpl]))
		}
		for i := range want[tmpl] {
			if got[tmpl][i] != want[tmpl][i] {
				t.Fatalf("template %d sample %d: spectral %v != reference %v", tmpl, i, got[tmpl][i], want[tmpl][i])
			}
		}
	}
}

// TestDetectWorkersMatchSerial: the parallel template fan-out must give
// exactly the serial result in both modes — the deterministic reduce
// breaks squared-magnitude ties toward the lower template index, like the
// serial ascending scan. Run under -race in CI, this is also the data-race
// check of the shared-state contract.
func TestDetectWorkersMatchSerial(t *testing.T) {
	bank, err := pulse.DefaultBank(ts, 12)
	if err != nil {
		t.Fatal(err)
	}
	const noise = 1.4e-5
	for _, mode := range []DetectorMode{ModeReference, ModeAuto} {
		serial, err := NewDetector(bank, DetectorConfig{Mode: mode, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := NewDetector(bank, DetectorConfig{Mode: mode, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 6; seed++ {
			taps := equivTrain(bank, seed, 3, noise)
			want, err := serial.Detect(taps, noise)
			if err != nil {
				t.Fatal(err)
			}
			got, err := parallel.Detect(taps, noise)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("mode %d seed %d: %d responses parallel, %d serial", mode, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("mode %d seed %d response %d: parallel %+v != serial %+v",
						mode, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDetectSpectralObsCounters pins the default path's plan counters on
// both of its searches. It up-samples once per Detect
// (dsp.upsample_execs) on both, and never shift-subtracts. The 3-shape
// bank keeps its outputs, ingests once per Detect and scans every
// template each round (dsp.bank_filters = rounds × templates). The
// 12-shape bank searches in frames: a transform is one frame's ingest
// and a filter one template on one frame. A round visits at least one
// frame and fewer than all, and filters every group's representative and
// at most every template on each; its winner's edge neighbours add at
// most two ingests and two filters.
func TestDetectSpectralObsCounters(t *testing.T) {
	for _, c := range []struct {
		shapes   int
		perRound bool
	}{{3, false}, {12, true}} {
		bank, err := pulse.DefaultBank(ts, c.shapes)
		if err != nil {
			t.Fatal(err)
		}
		det, err := NewDetector(bank, DetectorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if (det.tracked == nil) != c.perRound {
			t.Fatalf("%d shapes: keeps its outputs %v, want %v", c.shapes, det.tracked != nil, !c.perRound)
		}
		reg := obs.NewRegistry()
		det.SetRecorder(reg)
		const calls = 3
		var responses int64
		for i := 0; i < calls; i++ {
			taps := equivTrain(bank, uint64(i+1), 3, 1.4e-5)
			rs, err := det.Detect(taps, 1.4e-5)
			if err != nil {
				t.Fatal(err)
			}
			responses += int64(len(rs))
		}
		if responses == 0 {
			t.Fatalf("%d shapes: expected detections", c.shapes)
		}
		snap := reg.Snapshot()
		iters, ok := snap.HistogramByName(MetricDetectIterations)
		if !ok {
			t.Fatal("missing iterations histogram")
		}
		rounds := int64(iters.Sum)
		if rounds <= calls {
			t.Fatalf("%d shapes: %d rounds over %d calls: the counts below would not tell per-round from per-call", c.shapes, rounds, calls)
		}
		if got := snap.CounterValue(MetricUpsampleExecs); got != calls {
			t.Errorf("%d shapes: %s = %d, want %d (one per Detect)", c.shapes, MetricUpsampleExecs, got, calls)
		}
		transforms, filters := snap.CounterValue(MetricBankTransforms), snap.CounterValue(MetricBankFilters)
		if got := snap.CounterValue(MetricDetectTemplateEvals); got != rounds*int64(bank.Len()) {
			t.Errorf("%d shapes: %s = %d, want %d (rounds × templates)", c.shapes, MetricDetectTemplateEvals, got, rounds*int64(bank.Len()))
		}
		if !c.perRound {
			if transforms != calls {
				t.Errorf("%d shapes: %s = %d, want %d (one per Detect)", c.shapes, MetricBankTransforms, transforms, calls)
			}
			if filters != rounds*int64(bank.Len()) {
				t.Errorf("%d shapes: %s = %d, want %d (rounds × templates)", c.shapes, MetricBankFilters, filters, rounds*int64(bank.Len()))
			}
			continue
		}
		frames, nt := int64(det.frames.Frames()), int64(bank.Len())
		groups := int64(len(det.frames.Representatives()))
		if transforms < rounds || transforms >= rounds*frames {
			t.Errorf("%d shapes: %s = %d over %d rounds of %d frames, want at least one frame a round and fewer than all",
				c.shapes, MetricBankTransforms, transforms, rounds, frames)
		}
		// visited ≥ transforms − edge ingests, and filters is between
		// groups·visited and nt·visited plus the edge filters, with edge
		// ingests ≤ edge filters ≤ 2·rounds.
		if filters > nt*transforms+2*rounds || filters < groups*(transforms-2*rounds) {
			t.Errorf("%d shapes: %s = %d against %d frame ingests of %d templates in %d groups",
				c.shapes, MetricBankFilters, filters, transforms, nt, groups)
		}
		if got := snap.CounterValue(MetricBankShiftSubtracts); got != 0 {
			t.Errorf("%d shapes: %s = %d, want 0", c.shapes, MetricBankShiftSubtracts, got)
		}
	}
}
