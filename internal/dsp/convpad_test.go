package dsp

import (
	"math"
	"testing"
)

// bluesteinConvolve computes the linear convolution of a and b by running
// an exact-length circular convolution on a Bluestein dftPlan — the
// alternative MatchedFilterBank.planFor rejects in favor of padding to
// the next power of two (see BenchmarkConvolvePaddedVsBluestein).
func bluesteinConvolve(tb testing.TB, a, b []complex128) []complex128 {
	outLen := len(a) + len(b) - 1
	p, err := newDFTPlan(outLen)
	if err != nil {
		tb.Fatal(err)
	}
	fa := make([]complex128, outLen)
	fb := make([]complex128, outLen)
	copy(fa, a)
	copy(fb, b)
	p.Execute(fa)
	p.Execute(fb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	p.ExecuteInverse(fa)
	return fa
}

// TestMatchedFilterBankPaddedMatchesBluestein: for a non-power-of-two
// convolution length, the bank's FFT padded to the next power of two
// must agree with the exact-length Bluestein convolution to rounding.
func TestMatchedFilterBankPaddedMatchesBluestein(t *testing.T) {
	cases := []struct{ lt, ls int }{
		{61, 4064}, // detector shape: template × up-sampled CIR, outLen 4124
		{37, 1016}, // non-pow2 outLen 1052, padded to 2048
	}
	for _, c := range cases {
		tmpl := randComplex(c.lt, uint64(c.lt))
		sig := randComplex(c.ls, uint64(c.ls)+1)
		got := bankFilter(t, sig, tmpl)
		full := bluesteinConvolve(t, MatchedFilterTaps(tmpl), sig)
		want := full[c.lt-1 : c.lt-1+c.ls]
		var scale float64
		for _, v := range want {
			scale = math.Max(scale, math.Hypot(real(v), imag(v)))
		}
		for i := range want {
			if d := cAbs(got[i] - want[i]); d > 1e-9*scale {
				t.Fatalf("lt=%d ls=%d: out[%d] = %v, Bluestein %v (Δ=%g)",
					c.lt, c.ls, i, got[i], want[i], d)
			}
		}
	}
}

// BenchmarkConvolvePaddedVsBluestein backs the padding decision in
// MatchedFilterBank.planFor: one matched filtering of a non-power-of-two
// convolution on the bank, which pads to the next power of two, against
// the same filtering on an exact-length Bluestein dftPlan (whose every
// transform runs three power-of-two FFTs of roughly twice the size). Both
// sides precompute the template spectrum and pay one forward and one
// inverse transform per op.
func BenchmarkConvolvePaddedVsBluestein(bm *testing.B) {
	const lt, ls = 61, 4064 // outLen 4124: pad to 8192, Bluestein inner 16384
	tmpl := randComplex(lt, 1)
	sig := randComplex(ls, 2)
	outLen := lt + ls - 1

	bm.Run("padded-pow2", func(bm *testing.B) {
		bank, err := NewMatchedFilterBank([][]complex128{tmpl}, ls)
		if err != nil {
			bm.Fatal(err)
		}
		dst := make([]complex128, ls)
		bm.ResetTimer()
		for i := 0; i < bm.N; i++ {
			if err := bank.Transform(sig); err != nil {
				bm.Fatal(err)
			}
			if _, err := bank.FilterInto(dst, 0); err != nil {
				bm.Fatal(err)
			}
		}
	})

	bm.Run("bluestein-exact", func(bm *testing.B) {
		p, err := newDFTPlan(outLen)
		if err != nil {
			bm.Fatal(err)
		}
		spec := make([]complex128, outLen)
		copy(spec, MatchedFilterTaps(tmpl))
		p.Execute(spec)
		buf := make([]complex128, outLen)
		bm.ResetTimer()
		for i := 0; i < bm.N; i++ {
			clear(buf)
			copy(buf, sig)
			p.Execute(buf)
			for i := range buf {
				buf[i] *= spec[i]
			}
			p.ExecuteInverse(buf)
		}
	})
}
