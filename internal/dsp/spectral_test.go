package dsp

import (
	"math"
	"math/rand/v2"
	"testing"
)

// seededSignal returns a deterministic complex test vector.
func seededSignal(n int, seed uint64) []complex128 {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	return randSignal(rng, n)
}

// spectralTestTemplates builds a few odd-length smooth templates like the
// detector's (non-power-of-two lengths force a wrapped convolution tail).
func spectralTestTemplates(lens ...int) [][]complex128 {
	out := make([][]complex128, len(lens))
	for i, l := range lens {
		t := make([]complex128, l)
		c := float64(l-1) / 2
		for k := range t {
			x := (float64(k) - c) / (c + 1)
			env := math.Cos(x * math.Pi / 2)
			t[k] = complex(env*math.Cos(6*x), env*math.Sin(6*x))
		}
		out[i] = t
	}
	return out
}

// TestSpectralBankScanMatchesMatchedFilter: with no ShiftSubtract applied,
// Ingest + ScanBest is an exact overlap-save matched filter — outputs must
// agree with the plain MatchedFilter argmax and values to FFT rounding.
func TestSpectralBankScanMatchesMatchedFilter(t *testing.T) {
	const sigLen = 300 // m = 512, so long templates wrap: tail = 300+L-1-512
	tmpls := spectralTestTemplates(9, 215, 255)
	sig := seededSignal(sigLen, 7)
	b, err := NewSpectralBank(tmpls, sigLen)
	if err != nil {
		t.Fatal(err)
	}
	if b.PrefixLen() != 300+255-1-512 {
		t.Fatalf("PrefixLen = %d, want %d", b.PrefixLen(), 300+255-1-512)
	}
	requireScansMatch(t, b, sig, tmpls)
	if b.Ingests() != 1 {
		t.Errorf("counters: ingests %d, want 1", b.Ingests())
	}
}

// TestSpectralBankTemplatesLongerThanSignal: a signal shorter than its
// templates (a CIR of a few taps) sizes the transform for the longest
// template and still scans exactly.
func TestSpectralBankTemplatesLongerThanSignal(t *testing.T) {
	tmpls := spectralTestTemplates(9, 37, 113)
	for _, sigLen := range []int{1, 4, 20, 60} {
		b, err := NewSpectralBank(tmpls, sigLen)
		if err != nil {
			t.Fatalf("signal of %d samples: %v", sigLen, err)
		}
		requireScansMatch(t, b, seededSignal(sigLen, uint64(sigLen)), tmpls)
	}
}

// requireScansMatch ingests sig and requires every template's ScanBest
// peak and neighboring outputs to match the plain matched filter to FFT
// rounding.
func requireScansMatch(t *testing.T, b *SpectralBank, sig []complex128, tmpls [][]complex128) {
	t.Helper()
	if err := b.Ingest(sig); err != nil {
		t.Fatal(err)
	}
	scratch := b.NewScratch()
	for ti, tmpl := range tmpls {
		want := refMatchedFilter(sig, tmpl)
		idx, sq, y3, err := b.ScanBest(scratch, ti, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantIdx, wantSq := -1, 0.0
		for i, v := range want {
			s := real(v)*real(v) + imag(v)*imag(v)
			if s > wantSq {
				wantIdx, wantSq = i, s
			}
		}
		if idx != wantIdx {
			t.Fatalf("%d-sample signal, template %d: peak index %d, want %d", len(sig), ti, idx, wantIdx)
		}
		if rel := math.Abs(sq-wantSq) / wantSq; rel > 1e-9 {
			t.Errorf("%d-sample signal, template %d: peak |y|² off by %g relative", len(sig), ti, rel)
		}
		for k, off := range []int{-1, 0, 1} {
			i := idx + off
			if i < 0 || i >= len(sig) {
				continue
			}
			if d := cAbs(y3[k] - want[i]); d > 1e-9*(1+cAbs(want[i])) {
				t.Errorf("%d-sample signal, template %d: y3[%d] = %v, want %v", len(sig), ti, k, y3[k], want[i])
			}
		}
	}
}

func cAbs(v complex128) float64 {
	return math.Hypot(real(v), imag(v))
}

// TestSpectralBankShiftSubtractIntegerShift: for an integer-offset
// subtraction the DFT shift theorem is exact, so the updated bank must
// agree with a fresh bank fed the explicitly subtracted signal.
func TestSpectralBankShiftSubtractIntegerShift(t *testing.T) {
	const sigLen = 300
	tmpls := spectralTestTemplates(9, 215, 255)
	sig := seededSignal(sigLen, 11)
	b, err := NewSpectralBank(tmpls, sigLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Ingest(sig); err != nil {
		t.Fatal(err)
	}
	// Subtract amp·tmpl[1] centered at integer index 140.
	const sub, pos = 1, 140
	amp := complex(0.8, -0.3)
	center := (len(tmpls[sub]) - 1) / 2
	placed := make([]complex128, sigLen)
	copy(placed, sig)
	for k, v := range tmpls[sub] {
		x := pos - center + k
		if x >= 0 && x < sigLen {
			placed[x] -= amp * v
		}
	}
	eval := func(x int) complex128 {
		k := x - (pos - center)
		if k < 0 || k >= len(tmpls[sub]) {
			return 0
		}
		return amp * tmpls[sub][k]
	}
	if err := b.ShiftSubtract(sub, amp, pos, eval); err != nil {
		t.Fatal(err)
	}

	ref, err := NewSpectralBank(tmpls, sigLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Ingest(placed); err != nil {
		t.Fatal(err)
	}
	scratch, refScratch := b.NewScratch(), ref.NewScratch()
	for ti := range tmpls {
		idx, _, y3, err := b.ScanBest(scratch, ti, nil)
		if err != nil {
			t.Fatal(err)
		}
		refIdx, _, refY3, err := ref.ScanBest(refScratch, ti, nil)
		if err != nil {
			t.Fatal(err)
		}
		if idx != refIdx {
			t.Fatalf("template %d: peak index %d after ShiftSubtract, want %d", ti, idx, refIdx)
		}
		for k := range y3 {
			if d := cAbs(y3[k] - refY3[k]); d > 1e-8*(1+cAbs(refY3[k])) {
				t.Errorf("template %d: y3[%d] = %v, want %v (Δ=%g)", ti, k, y3[k], refY3[k], d)
			}
		}
	}
}

// TestSpectralBankScanSkipsIntervals: skipped ranges must never win the
// scan, matching a masked reference search.
func TestSpectralBankScanSkipsIntervals(t *testing.T) {
	const sigLen = 300
	tmpls := spectralTestTemplates(31)
	sig := seededSignal(sigLen, 13)
	b, err := NewSpectralBank(tmpls, sigLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Ingest(sig); err != nil {
		t.Fatal(err)
	}
	scratch := b.NewScratch()
	full, _, _, err := b.ScanBest(scratch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	skip := []SkipInterval{{Lo: full - 3, Hi: full + 3}}
	idx, sq, _, err := b.ScanBest(scratch, 0, skip)
	if err != nil {
		t.Fatal(err)
	}
	if idx >= skip[0].Lo && idx <= skip[0].Hi {
		t.Fatalf("scan returned suppressed index %d", idx)
	}
	want := refMatchedFilter(sig, tmpls[0])
	wantIdx, wantSq := -1, 0.0
	for i, v := range want {
		if i >= skip[0].Lo && i <= skip[0].Hi {
			continue
		}
		s := real(v)*real(v) + imag(v)*imag(v)
		if s > wantSq {
			wantIdx, wantSq = i, s
		}
	}
	if idx != wantIdx {
		t.Fatalf("masked peak index %d, want %d", idx, wantIdx)
	}
	if rel := math.Abs(sq-wantSq) / wantSq; rel > 1e-9 {
		t.Errorf("masked peak |y|² off by %g relative", rel)
	}
	// Everything skipped → -1.
	idx, sq, _, err = b.ScanBest(scratch, 0, []SkipInterval{{Lo: 0, Hi: sigLen - 1}})
	if err != nil {
		t.Fatal(err)
	}
	if idx != -1 || sq != 0 {
		t.Fatalf("fully masked scan returned (%d, %g), want (-1, 0)", idx, sq)
	}
}
