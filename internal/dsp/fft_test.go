package dsp

import (
	"math"
	"math/cmplx"
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func complexClose(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func randSignal(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

// planDFT returns the forward (or inverse) DFT of v computed on a
// production dftPlan of v's length: radix-2 for powers of two, Bluestein
// otherwise.
func planDFT(tb testing.TB, v []complex128, inverse bool) []complex128 {
	tb.Helper()
	p, err := newDFTPlan(len(v))
	if err != nil {
		tb.Fatal(err)
	}
	out := Clone(v)
	if inverse {
		p.ExecuteInverse(out)
	} else {
		p.Execute(out)
	}
	return out
}

// planUpsample up-samples v by factor on a production UpsamplePlan.
func planUpsample(tb testing.TB, v []complex128, factor int) []complex128 {
	tb.Helper()
	p, err := NewUpsamplePlan(len(v), factor)
	if err != nil {
		tb.Fatal(err)
	}
	return p.Execute(make([]complex128, len(v)*factor), v)
}

// dftNaive is the O(n^2) oracle the transforms are tested against.
func dftNaive(v []complex128) []complex128 {
	n := len(v)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			phi := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			acc += v[t] * cmplx.Exp(complex(0, phi))
		}
		out[k] = acc
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 33, 64, 100, 127, 128} {
		v := randSignal(rng, n)
		got := planDFT(t, v, false)
		want := dftNaive(v)
		for i := range want {
			if !complexClose(got[i], want[i], 1e-7*float64(n)) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1, 2, 5, 8, 13, 64, 100, 255, 256, 1000, 1016, 1024} {
		v := randSignal(rng, n)
		back := planDFT(t, planDFT(t, v, false), true)
		for i := range v {
			if !complexClose(back[i], v[i], 1e-8*float64(n)) {
				t.Fatalf("n=%d sample %d: got %v want %v", n, i, back[i], v[i])
			}
		}
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	// The plans that take an input slice transform a copy of it: the
	// caller's residual must survive every call unchanged.
	rng := rand.New(rand.NewPCG(5, 6))
	v := randSignal(rng, 50)
	orig := Clone(v)
	planUpsample(t, v, 4)
	fb, err := NewMatchedFilterBank([][]complex128{randSignal(rng, 9), randSignal(rng, 3)}, len(v))
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.Transform(v); err != nil {
		t.Fatal(err)
	}
	sb, err := NewSpectralBank([][]complex128{randSignal(rng, 9)}, len(v))
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Ingest(v); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if v[i] != orig[i] {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 99))
		n := 1 + r.IntN(200)
		a := randSignal(r, n)
		b := randSignal(r, n)
		alpha := complex(r.NormFloat64(), r.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = alpha*a[i] + b[i]
		}
		lhs := planDFT(t, sum, false)
		fa, fb := planDFT(t, a, false), planDFT(t, b, false)
		for i := range lhs {
			if !complexClose(lhs[i], alpha*fa[i]+fb[i], 1e-7*float64(n)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: mrand.New(mrand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 123))
		n := 1 + r.IntN(300)
		v := randSignal(r, n)
		timeE := Energy(v)
		freqE := Energy(planDFT(t, v, false)) / float64(n)
		return math.Abs(timeE-freqE) <= 1e-7*(1+timeE)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: mrand.New(mrand.NewSource(43))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestUpsampleFFTPreservesSamples(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, n := range []int{4, 7, 16, 33, 100} {
		for _, factor := range []int{1, 2, 4, 8} {
			v := randSignal(rng, n)
			up := planUpsample(t, v, factor)
			if len(up) != n*factor {
				t.Fatalf("n=%d factor=%d: got len %d", n, factor, len(up))
			}
			for i := 0; i < n; i++ {
				if !complexClose(up[i*factor], v[i], 1e-7*float64(n)) {
					t.Fatalf("n=%d factor=%d: sample %d got %v want %v",
						n, factor, i, up[i*factor], v[i])
				}
			}
		}
	}
}

func TestUpsampleFFTKeepsRealSignalsReal(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for _, n := range []int{8, 16, 31, 64} {
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(rng.NormFloat64(), 0)
		}
		up := planUpsample(t, v, 4)
		for i, c := range up {
			if math.Abs(imag(c)) > 1e-8 {
				t.Fatalf("n=%d: imaginary leakage %g at %d", n, imag(c), i)
			}
		}
	}
}

func TestUpsampleFFTInterpolatesSinusoid(t *testing.T) {
	// A band-limited tone must be reconstructed exactly between samples.
	const n, factor = 64, 8
	v := make([]complex128, n)
	for i := range v {
		ph := 2 * math.Pi * 3 * float64(i) / float64(n)
		v[i] = cmplx.Exp(complex(0, ph))
	}
	up := planUpsample(t, v, factor)
	for i := range up {
		ph := 2 * math.Pi * 3 * float64(i) / float64(n*factor)
		want := cmplx.Exp(complex(0, ph))
		if !complexClose(up[i], want, 1e-7) {
			t.Fatalf("sample %d: got %v want %v", i, up[i], want)
		}
	}
}

func TestUpsampleFFTRejectsBadFactor(t *testing.T) {
	for _, factor := range []int{0, -3} {
		if _, err := NewUpsamplePlan(1, factor); err == nil {
			t.Errorf("factor %d accepted", factor)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-5: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
