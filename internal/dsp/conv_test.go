package dsp

import (
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// Apart from the two routing tests, the Convolve tests check the reference
// convolution (reference_test.go) that MatchedFilterBank is pinned against
// bit for bit, so that the pins prove the bank right and not merely
// consistent with the reference.

func TestConvolveKnownValues(t *testing.T) {
	a := []complex128{1, 2, 3}
	b := []complex128{4, 5}
	got := refConvolve(a, b)
	want := []complex128{4, 13, 22, 15}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !complexClose(got[i], want[i], 1e-12) {
			t.Fatalf("sample %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestConvolveEmptyInputs(t *testing.T) {
	if out := refConvolve(nil, []complex128{1}); out != nil {
		t.Fatalf("expected nil, got %v", out)
	}
	if out := refConvolve([]complex128{1}, nil); out != nil {
		t.Fatalf("expected nil, got %v", out)
	}
}

func TestConvolveDirectMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for _, sz := range [][2]int{{5, 9}, {64, 64}, {200, 31}, {300, 300}, {1016, 120}} {
		a := randSignal(rng, sz[0])
		b := randSignal(rng, sz[1])
		direct := refConvolveDirect(a, b)
		viaFFT := refConvolveFFT(a, b)
		if len(direct) != len(viaFFT) {
			t.Fatalf("size mismatch: %d vs %d", len(direct), len(viaFFT))
		}
		scale := maxAbs(direct) + 1
		for i := range direct {
			if !complexClose(direct[i], viaFFT[i], 1e-9*scale*float64(len(direct))) {
				t.Fatalf("%v: sample %d: direct %v fft %v", sz, i, direct[i], viaFFT[i])
			}
		}
	}
}

func TestConvolveThresholdDoesNotOverflow(t *testing.T) {
	// The direct-vs-FFT routing compares len(a)·len(b) against the
	// threshold; phrased as a product it overflows a 32-bit int for
	// operand lengths whose product exceeds 2³¹ (66000² ≈ 4.4·10⁹) and
	// could misroute giant inputs to the O(n·m) direct path. A bank
	// matching a delta template against a delta signal of that size must
	// take the FFT path (the direct path would not return in any
	// reasonable time) and still peak at the lag between the two deltas.
	const n = 66000
	tmpl := make([]complex128, n)
	sig := make([]complex128, n)
	const pa, pb = 123, 4567
	tmpl[pa] = 1
	sig[pb] = 1
	if convolveUseDirect(n, n) {
		t.Fatal("66000×66000 routed to the direct path")
	}
	out := bankFilter(t, sig, tmpl)
	if len(out) != n {
		t.Fatalf("output length %d", len(out))
	}
	if !complexClose(out[pb-pa], 1, 1e-6) {
		t.Fatalf("delta at %d = %v, want 1", pb-pa, out[pb-pa])
	}
	// The rest of the output is numerically zero.
	out[pb-pa] = 0
	if m := maxAbs(out); m > 1e-6 {
		t.Fatalf("spurious energy %g", m)
	}
}

func TestConvolveUseDirectMatchesProductRule(t *testing.T) {
	// For sizes where the product cannot overflow, the division form must
	// agree exactly with the original product comparison.
	for _, la := range []int{1, 2, 7, 100, 128, 129, 1000, 16384} {
		for _, lb := range []int{1, 2, 7, 100, 128, 129, 1000, 16384} {
			want := la*lb <= convFFTThreshold
			if got := convolveUseDirect(la, lb); got != want {
				t.Fatalf("(%d, %d): direct = %v, want %v", la, lb, got, want)
			}
		}
	}
}

func TestConvolveCommutativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 7))
		a := randSignal(r, 1+r.IntN(80))
		b := randSignal(r, 1+r.IntN(80))
		ab := refConvolve(a, b)
		ba := refConvolve(b, a)
		for i := range ab {
			if !complexClose(ab[i], ba[i], 1e-8*(1+maxAbs(ab))) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: mrand.New(mrand.NewSource(44))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveDeltaIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	v := randSignal(rng, 40)
	out := refConvolve(v, []complex128{1})
	for i := range v {
		if !complexClose(out[i], v[i], 1e-12) {
			t.Fatalf("sample %d: got %v want %v", i, out[i], v[i])
		}
	}
	// A shifted delta shifts the signal.
	out = refConvolve(v, []complex128{0, 0, 1})
	for i := range v {
		if !complexClose(out[i+2], v[i], 1e-12) {
			t.Fatalf("shifted sample %d: got %v want %v", i, out[i+2], v[i])
		}
	}
}

func TestMatchedFilterPeakAlignment(t *testing.T) {
	// Place a template at a known delay inside a longer signal; the matched
	// filter output must peak exactly at that delay.
	tmpl := []complex128{0.2, 0.7, 1, 0.7, 0.2}
	for _, delay := range []int{0, 3, 17, 90} {
		r := make([]complex128, 128)
		for i, s := range tmpl {
			r[delay+i] = s
		}
		y := bankFilter(t, r, tmpl)
		if len(y) != len(r) {
			t.Fatalf("output length %d, want %d", len(y), len(r))
		}
		if idx := ArgMax(Abs(y)); idx != delay {
			t.Fatalf("delay %d: peak at %d", delay, idx)
		}
	}
}

func TestMatchedFilterPeakValueIsTemplateEnergy(t *testing.T) {
	tmpl := NormalizeEnergy([]complex128{1, 2, 3, 2, 1})
	r := make([]complex128, 64)
	copy(r[10:], tmpl)
	if v := maxAbs(bankFilter(t, r, tmpl)); !closeTo(v, 1.0, 1e-9) {
		t.Fatalf("peak value %g, want 1 (unit-energy template)", v)
	}
}

func TestMatchedFilterComplexPhase(t *testing.T) {
	// A pulse with complex amplitude alpha must produce a matched-filter
	// peak equal to alpha times the template energy.
	tmpl := NormalizeEnergy(randSignal(rand.New(rand.NewPCG(31, 32)), 9))
	alpha := complex(0.3, -1.2)
	r := make([]complex128, 80)
	for i, s := range tmpl {
		r[25+i] = alpha * s
	}
	y := bankFilter(t, r, tmpl)
	if !complexClose(y[25], alpha, 1e-9) {
		t.Fatalf("peak %v, want %v", y[25], alpha)
	}
}

func TestCrossCorrelateLagZeroIsInnerProduct(t *testing.T) {
	// The matched filter is a cross-correlation against the template: a
	// signal filtered with itself as the template yields its energy at
	// lag zero.
	rng := rand.New(rand.NewPCG(33, 34))
	a := randSignal(rng, 30)
	cc := bankFilter(t, a, a)
	if !closeTo(real(cc[0]), Energy(a), 1e-9*Energy(a)) {
		t.Fatalf("lag-0 autocorrelation %v, want energy %g", cc[0], Energy(a))
	}
}

// bankFilter matched-filters sig against tmpl on a one-template
// MatchedFilterBank and returns a caller-owned output.
func bankFilter(tb testing.TB, sig, tmpl []complex128) []complex128 {
	tb.Helper()
	bank, err := NewMatchedFilterBank([][]complex128{tmpl}, len(sig))
	if err != nil {
		tb.Fatal(err)
	}
	if err := bank.Transform(sig); err != nil {
		tb.Fatal(err)
	}
	out, err := bank.FilterInto(make([]complex128, len(sig)), 0)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// maxAbs returns the largest element magnitude of v (0 when empty).
func maxAbs(v []complex128) float64 {
	mag := Abs(v)
	if i := ArgMax(mag); i >= 0 {
		return mag[i]
	}
	return 0
}

func closeTo(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
