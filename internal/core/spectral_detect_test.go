package core

// Equivalence and bit-identity tests for the spectral fast path and the
// per-round search machinery it replaced: the interval-based suppression
// must match the seed's per-sample predicate exactly, the fused
// FilterPeak scan must match FilterInto + maxOutsideSuppression exactly,
// the parallel template fan-out must match the serial scan exactly, and
// the spectral detector must match the reference detector within 1e-9 on
// the Sect. VI equal-distance concurrent-responder scenarios.

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/obs"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

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
// overlapping equal-distance responders (Sect. VI), the spectral fast
// path must agree with the exact reference path on response count,
// template identity, delay and amplitude to within 1e-9 relative. The
// only escape hatch is the hardest case — four pulses inside one
// quantization window — where the joint fit has near-degenerate optima
// and the two paths may legitimately settle into different ones; those
// scenarios must still agree on count, templates, quarter-sample delays,
// and explain the measurement equally well (residual energy within 1%).
func TestDetectSpectralMatchesReference(t *testing.T) {
	bank, err := pulse.DefaultBank(ts, 4)
	if err != nil {
		t.Fatal(err)
	}
	const noise = 1.4e-5
	const tol = 1e-9
	scenarios := 0
	for responders := 1; responders <= 4; responders++ {
		// The paper's N−1-strongest mode: extraction stops after the
		// genuine responses. The unbounded auto-stop mode keeps mining
		// the overlap residual of same-position pulses down to the noise
		// floor, where coarse-search basins are legitimately unstable.
		cfg := DetectorConfig{MaxResponses: responders}
		cfg.Mode = ModeReference
		ref, err := NewDetector(bank, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Mode = ModeSpectral
		fast, err := NewDetector(bank, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 12; seed++ {
			taps := equivTrain(bank, seed*4+uint64(responders), responders, noise)
			want, err := ref.Detect(taps, noise)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fast.Detect(taps, noise)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d, %d responders: spectral found %d responses, reference %d",
					seed, responders, len(got), len(want))
			}
			deviates := false
			for i := range want {
				if got[i].TemplateIndex != want[i].TemplateIndex {
					t.Errorf("seed %d, %d responders, response %d: template %d != %d",
						seed, responders, i, got[i].TemplateIndex, want[i].TemplateIndex)
				}
				// Delays compared in sample units: an absolute floor in
				// seconds would hide whole-sample drift.
				dOK := relCloseT(got[i].Delay/ts, want[i].Delay/ts, tol)
				aOK := cmplx.Abs(got[i].Amplitude-want[i].Amplitude) <=
					tol*math.Max(1, cmplx.Abs(want[i].Amplitude))
				if dOK && aOK {
					continue
				}
				// Four pulses inside one quantization window make the
				// joint fit nearly degenerate: the two paths may settle
				// into different but equally valid optima, accepted below
				// by fit quality. Fewer responders must match exactly.
				if responders < 4 {
					t.Errorf("seed %d, %d responders, response %d: (%.17g, %v) != (%.17g, %v)",
						seed, responders, i, got[i].Delay, got[i].Amplitude, want[i].Delay, want[i].Amplitude)
					continue
				}
				deviates = true
				if d := math.Abs(got[i].Delay-want[i].Delay) / ts; d > 0.25 {
					t.Errorf("seed %d, %d responders, response %d: delays %.17g and %.17g differ by %g samples",
						seed, responders, i, got[i].Delay, want[i].Delay, d)
				}
			}
			if deviates {
				// Alternate optima must explain the measurement equally
				// well: residual energies within 1% of each other.
				wantRes := residualEnergy(bank, taps, want)
				gotRes := residualEnergy(bank, taps, got)
				if r := gotRes / wantRes; r > 1.01 || r < 1/1.01 {
					t.Errorf("seed %d, %d responders: fit quality differs, residual energy ratio %g",
						seed, responders, r)
				}
			}
			scenarios++
		}
	}
	if scenarios != 48 {
		t.Fatalf("ran %d scenarios, want 48", scenarios)
	}
}

// residualEnergy returns ‖taps − Σ α̂·s(·−τ̂)‖²: how much of the measured
// CIR a detected response set leaves unexplained.
func residualEnergy(bank *pulse.Bank, taps []complex128, rs []Response) float64 {
	res := make([]complex128, len(taps))
	copy(res, taps)
	for _, r := range rs {
		bank.Shape(r.TemplateIndex).RenderInto(res, -r.Amplitude, r.Delay/ts, ts)
	}
	var e float64
	for _, v := range res {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
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
	det, err := NewDetector(bank, DetectorConfig{})
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

// TestMatchedFilterOutputsSpectralMatchesReference: a spectral-path
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
	if spectral.sbank == nil {
		t.Fatal("a 12-template bank should select the spectral path")
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
	for _, mode := range []DetectorMode{ModeReference, ModeSpectral} {
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

// TestDetectSpectralObsCounters: the acceptance gate of the spectral
// path — dsp.bank_transforms (and dsp.upsample_execs) drop to one per
// Detect, with one analytic shift-subtract per extracted response.
func TestDetectSpectralObsCounters(t *testing.T) {
	bank, err := pulse.DefaultBank(ts, 4)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(bank, DetectorConfig{Mode: ModeSpectral})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	det.SetRecorder(reg)
	const calls = 3
	var responses, rounds int64
	for i := 0; i < calls; i++ {
		taps := equivTrain(bank, uint64(i+1), 3, 1.4e-5)
		rs, err := det.Detect(taps, 1.4e-5)
		if err != nil {
			t.Fatal(err)
		}
		responses += int64(len(rs))
	}
	if responses == 0 {
		t.Fatal("expected detections")
	}
	snap := reg.Snapshot()
	iters, ok := snap.HistogramByName(MetricDetectIterations)
	if !ok {
		t.Fatal("missing iterations histogram")
	}
	rounds = int64(iters.Sum)
	if got := snap.CounterValue(MetricBankTransforms); got != calls {
		t.Errorf("%s = %d, want %d (one per Detect)", MetricBankTransforms, got, calls)
	}
	if got := snap.CounterValue(MetricUpsampleExecs); got != calls {
		t.Errorf("%s = %d, want %d (one per Detect)", MetricUpsampleExecs, got, calls)
	}
	if got := snap.CounterValue(MetricBankFilters); got != rounds*int64(bank.Len()) {
		t.Errorf("%s = %d, want %d (rounds × templates)", MetricBankFilters, got, rounds*int64(bank.Len()))
	}
	if got := snap.CounterValue(MetricBankShiftSubtracts); got != responses {
		t.Errorf("%s = %d, want %d (one per extracted response)", MetricBankShiftSubtracts, got, responses)
	}
}
