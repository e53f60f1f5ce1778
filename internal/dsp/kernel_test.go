package dsp

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// edgeComplex returns a seeded vector whose components mix ±0, subnormals,
// magnitudes around 1e±300 and ordinary Gaussian values.
func edgeComplex(n int, seed uint64) []complex128 {
	rng := rand.New(rand.NewPCG(seed, 31))
	part := func() float64 {
		sign := 1.0
		if rng.IntN(2) == 0 {
			sign = -1
		}
		switch rng.IntN(6) {
		case 0:
			return math.Copysign(0, sign)
		case 1:
			return sign * math.Float64frombits(1+rng.Uint64N(1<<52-1)) // subnormal
		case 2:
			return sign * 1e300 * (1 + rng.Float64())
		case 3:
			return sign * 1e-300 * (1 + rng.Float64())
		default:
			return rng.NormFloat64()
		}
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(part(), part())
	}
	return out
}

// firstBitDiff returns the first index where got and want differ in any
// bit of either component (NaNs compare by their bits), or -1.
func firstBitDiff(got, want []complex128) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return i
		}
	}
	return -1
}

// goKernelPlan returns a copy of p with its kernel field cleared, so it
// runs the Go butterfly loops on p's tables without touching package
// state.
func goKernelPlan(p *fftPlan) *fftPlan {
	g := *p
	g.avx2 = false
	return &g
}

// kernelResults runs transform on a and the product transforms on a⊙b,
// natural and bit-reversed, through plan p in one direction.
func kernelResults(p *fftPlan, a, b []complex128, inverse bool) (tr, prod, perm []complex128) {
	tw := p.fwd
	if inverse {
		tw = p.inv
	}
	n := p.n
	tr = Clone(a)
	p.transform(tr, tw)
	prod = make([]complex128, n)
	p.productTransform(prod, a, b, tw)
	ar, br := make([]complex128, n), make([]complex128, n)
	p.permuteInto(ar, a)
	p.permuteInto(br, b)
	perm = make([]complex128, n)
	p.productTransformPermuted(perm, ar, br, tw)
	return tr, prod, perm
}

// checkKernels fails unless the AVX2 plan p and the same plan on the Go
// kernel agree bit for bit on transform(a) and on the transforms of a⊙b,
// natural and bit-reversed, both directions, and unless both equal the
// textbook refRadix2. The textbook transform multiplies by the unit
// twiddle 1+0i where the plans skip that multiply; the multiply can flip
// the sign of a zero and turns ±Inf into NaN (∞·0), so the reference is
// compared by value (±0 equal, as equalExact does) and only while its
// output is finite.
func checkKernels(t testing.TB, p *fftPlan, a, b []complex128, what string) {
	t.Helper()
	g := goKernelPlan(p)
	for _, inverse := range []bool{false, true} {
		wantTr := Clone(a)
		refRadix2(wantTr, inverse)
		wantProd := make([]complex128, len(a))
		for i := range wantProd {
			wantProd[i] = a[i] * b[i]
		}
		refRadix2(wantProd, inverse)
		avxTr, avxProd, avxPerm := kernelResults(p, a, b, inverse)
		goTr, goProd, goPerm := kernelResults(g, a, b, inverse)
		for _, c := range []struct {
			name            string
			avx, goRes, ref []complex128
		}{
			{"transform", avxTr, goTr, wantTr},
			{"productTransform", avxProd, goProd, wantProd},
			{"productTransformPermuted", avxPerm, goPerm, wantProd},
		} {
			if i := firstBitDiff(c.avx, c.goRes); i >= 0 {
				t.Fatalf("%s n=%d inverse=%v %s: AVX2 sample %d = %v, Go kernel %v",
					what, p.n, inverse, c.name, i, c.avx[i], c.goRes[i])
			}
			if !allFinite(c.ref) {
				continue
			}
			for i := range c.ref {
				if c.goRes[i] != c.ref[i] {
					t.Fatalf("%s n=%d inverse=%v %s: Go kernel sample %d = %v, refRadix2 %v",
						what, p.n, inverse, c.name, i, c.goRes[i], c.ref[i])
				}
			}
		}
	}
}

func allFinite(v []complex128) bool {
	for _, x := range v {
		if math.IsNaN(real(x)) || math.IsInf(real(x), 0) || math.IsNaN(imag(x)) || math.IsInf(imag(x), 0) {
			return false
		}
	}
	return true
}

// TestFFTKernelsBitIdentical pins the AVX2 butterfly kernels to the Go
// loops bit for bit, and both to the textbook transform (see
// checkKernels), at every power-of-two length from 2 to 16384: transform,
// productTransform and productTransformPermuted, forward and inverse, on
// Gaussian inputs and on inputs mixing ±0, subnormals and magnitudes of
// 1e±300 (whose products overflow to ±Inf and NaN).
func TestFFTKernelsBitIdentical(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: the Go kernel is the only path")
	}
	for n := 2; n <= 16384; n <<= 1 {
		p, err := newFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if !p.avx2 {
			t.Fatalf("n=%d: plan does not record the AVX2 kernel", n)
		}
		seed := uint64(n)
		checkKernels(t, p, randComplex(n, seed), randComplex(n, seed+1), "gaussian")
		checkKernels(t, p, edgeComplex(n, seed), randComplex(n, seed+2), "edge×gaussian")
		checkKernels(t, p, edgeComplex(n, seed+3), edgeComplex(n, seed+4), "edge×edge")
	}
}

// fuzzTaps decodes up to 64 complex taps from data, 16 little-endian
// bytes each, and repeats them cyclically to n taps. It returns nil when
// data holds no whole tap or more than 64, or when a component is NaN or
// ±Inf. The cap keeps fuzz inputs short, so the fuzzer's minimization of
// a new input stays quick.
func fuzzTaps(data []byte, n int) []complex128 {
	m := len(data) / 16
	if m == 0 || m > 64 {
		return nil
	}
	taps := make([]complex128, m)
	for i := range taps {
		re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		taps[i] = complex(re, im)
	}
	if !allFinite(taps) {
		return nil
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = taps[i%m]
	}
	return out
}

// FuzzFFTKernels runs checkKernels on fuzzed finite taps at a fuzzed
// power-of-two length from 2 to 4096.
func FuzzFFTKernels(f *testing.F) {
	f.Add(uint8(3), bytes.Repeat(fuzzSample, 8), bytes.Repeat(fuzzSample, 8))
	f.Add(uint8(0), make([]byte, 32), fuzzSample)
	f.Add(uint8(11), bytes.Repeat(fuzzSample, 64), bytes.Repeat(fuzzSample, 5))
	f.Fuzz(func(t *testing.T, logN uint8, a, b []byte) {
		if !haveAVX2 {
			t.Skip("CPU without AVX2: the Go kernel is the only path")
		}
		n := 2 << (logN % 12)
		va, vb := fuzzTaps(a, n), fuzzTaps(b, n)
		if va == nil || vb == nil {
			t.Skip()
		}
		p, err := newFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		checkKernels(t, p, va, vb, "fuzz")
	})
}

// kernelSink keeps BenchmarkFFTKernels' results live.
var kernelSink []complex128

// BenchmarkFFTKernels times the Go and AVX2 butterfly kernels on the
// transforms the detector runs: the 4096-point inverse product transform
// of every SpectralBank scan, the 4096-point forward transform of its
// Ingest, and the 8192-point product transform of the reference path.
func BenchmarkFFTKernels(bm *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		run  func(p *fftPlan, v, a, b []complex128)
	}{
		{"productTransformPermuted-4096", 4096, func(p *fftPlan, v, a, b []complex128) {
			p.productTransformPermuted(v, a, b, p.inv)
		}},
		{"transform-4096", 4096, func(p *fftPlan, v, a, _ []complex128) {
			copy(v, a)
			p.transform(v, p.fwd)
		}},
		{"productTransform-8192", 8192, func(p *fftPlan, v, a, b []complex128) {
			p.productTransform(v, a, b, p.inv)
		}},
	} {
		p, err := newFFTPlan(c.n)
		if err != nil {
			bm.Fatal(err)
		}
		kernels := []string{"go"}
		if haveAVX2 {
			kernels = append(kernels, "avx2")
		}
		for _, k := range kernels {
			plan := p
			if k == "go" {
				plan = goKernelPlan(p)
			}
			bm.Run(c.name+"/"+k, func(b *testing.B) {
				a, x := randComplex(c.n, 1), randComplex(c.n, 2)
				v := make([]complex128, c.n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.run(plan, v, a, x)
				}
				kernelSink = v
			})
		}
	}
}
