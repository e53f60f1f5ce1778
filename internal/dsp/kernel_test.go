package dsp

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
		for _, k := range kernelNames() {
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

// goUpsamplePlan returns a copy of p with its kernel field cleared, so
// AddSegment runs the Go loop on p's table.
func goUpsamplePlan(p *UpsamplePlan) *UpsamplePlan {
	g := *p
	g.avx2 = false
	return &g
}

// checkAddSegmentKernels fails unless AddSegment of seg at lo onto base
// gives the same bits, NaN bits included, on the oracle refAddSegment, on
// the Go loop and, when p records it, on the AVX2 kernel.
func checkAddSegmentKernels(t testing.TB, p *UpsamplePlan, base, seg []complex128, lo int, what string) {
	t.Helper()
	want := Clone(base)
	refAddSegment(p, want, seg, lo)
	got := Clone(base)
	goUpsamplePlan(p).AddSegment(got, seg, lo)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%s: n %d factor %d, %d-sample segment at %d: Go loop output %d = %v, oracle %v",
			what, p.n, p.factor, len(seg), lo, i, got[i], want[i])
	}
	if !p.avx2 {
		return
	}
	got = Clone(base)
	p.AddSegment(got, seg, lo)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%s: n %d factor %d, %d-sample segment at %d: AVX2 output %d = %v, oracle %v",
			what, p.n, p.factor, len(seg), lo, i, got[i], want[i])
	}
}

// addSegmentInputs returns the segments and bases the kernel tests add:
// Gaussian samples; samples mixing ±0, subnormals and 1e±300 magnitudes;
// zero samples at both ends and in the middle, which split the segment
// into runs; pure-imaginary samples with a signed zero real part; and
// Gaussian samples with ±Inf planted, which make ±Inf and NaN outputs
// (∞·0, ∞ − ∞). The bases are Gaussian, the same edge mix, all −0 (which
// a skipped zero sample must leave −0), and Gaussian with ±Inf planted.
// No input is NaN: every NaN is then the one an invalid operation makes,
// so the operand order of an add, which Go leaves to the compiler (x86
// keeps the first operand's NaN when both are NaN), cannot show in the
// bits.
func addSegmentInputs(segLen, out int, seed uint64) (segs, bases [][]complex128) {
	withInf := func(v []complex128) []complex128 {
		for i := 1; i < len(v); i += 3 {
			if i%2 == 0 {
				v[i] = complex(math.Inf(1), imag(v[i]))
			} else {
				v[i] = complex(real(v[i]), math.Inf(-1))
			}
		}
		return v
	}
	zeros := randComplex(segLen, seed)
	zeros[0] = 0
	zeros[segLen/2] = 0
	zeros[segLen-1] = complex(math.Copysign(0, -1), 0)
	pureImag := randComplex(segLen, seed+1)
	for k, v := range pureImag {
		pureImag[k] = complex(math.Copysign(0, float64(k%2)-0.5), real(v))
	}
	negZero := make([]complex128, out)
	for i := range negZero {
		negZero[i] = complex(math.Copysign(0, -1), math.Copysign(0, -1))
	}
	segs = [][]complex128{randComplex(segLen, seed+2), edgeComplex(segLen, seed+3), zeros, pureImag,
		withInf(randComplex(segLen, seed+4))}
	bases = [][]complex128{randComplex(out, seed+5), edgeComplex(out, seed+6), negZero,
		withInf(randComplex(out, seed+7))}
	return segs, bases
}

// TestAddSegmentKernelsBitIdentical pins AddSegment's AVX2 kernel and Go
// loop to the term-by-term oracle bit for bit (checkAddSegmentKernels):
// odd and even input lengths, factors 1–5, every segment length from 1 to
// 29 at both window edges and in the middle, and the museum (11, 20 and 25
// samples) and widest 108-bank (29) pulses on the 4×-up-sampled 1016-tap
// CIR. Without AVX2 it checks the Go loop and then skips.
func TestAddSegmentKernelsBitIdentical(t *testing.T) {
	check := func(n, factor, segLen int, los []int) {
		p, err := NewUpsamplePlan(n, factor)
		if err != nil {
			t.Fatal(err)
		}
		if p.avx2 != haveAVX2 {
			t.Fatalf("n=%d factor=%d: plan records avx2=%v on a CPU with %v", n, factor, p.avx2, haveAVX2)
		}
		segs, bases := addSegmentInputs(segLen, n*factor, uint64(n*factor*segLen))
		for _, lo := range los {
			for si, seg := range segs {
				for bi, base := range bases {
					checkAddSegmentKernels(t, p, base, seg, lo, fmt.Sprintf("segment %d on base %d", si, bi))
				}
			}
		}
	}
	for _, n := range []int{29, 30, 64} {
		for factor := 1; factor <= 5; factor++ {
			for segLen := 1; segLen <= 29 && segLen <= n; segLen++ {
				check(n, factor, segLen, []int{0, (n - segLen) / 2, n - segLen})
			}
		}
	}
	for _, segLen := range []int{11, 20, 25, 29} {
		check(1016, 4, segLen, []int{0, 500, 1016 - segLen})
	}
	if !haveAVX2 {
		t.Skip("CPU without AVX2: checked the Go loop against the oracle only")
	}
}

// peakScanInputs returns the vectors the peak-scan tests search: Gaussian
// samples, the edge mix of edgeComplex, and Gaussian samples with NaN,
// ±Inf and exact ties planted in several lanes, so NaN must never win,
// the first infinite sample must, and ties must go to the lowest index.
func peakScanInputs(n int, seed uint64) [][]complex128 {
	nan, inf := math.NaN(), math.Inf(1)
	planted := randComplex(n, seed)
	for i := range planted {
		switch i % 13 {
		case 3:
			planted[i] = complex(nan, 1)
		case 7:
			planted[i] = complex(-inf, 0)
		case 11:
			planted[i] = complex(0, inf)
		}
	}
	ties := randComplex(n, seed+1)
	for i := 5; i < n; i += 6 {
		ties[i] = complex(3, -4)
	}
	nanOnly := make([]complex128, n)
	for i := range nanOnly {
		nanOnly[i] = complex(nan, float64(i))
	}
	return [][]complex128{randComplex(n, seed+2), edgeComplex(n, seed+3), planted, ties, nanOnly, make([]complex128, n)}
}

// TestPeakScanKernelsBitIdentical pins ScanBest's peak scan three ways.
// peakScanAVX2 must return peakScan's index and the bits of its value on
// every length from 0 to 40 and on 4064 and 4096 samples, for scales that
// keep the squares finite and one that overflows them to +Inf, and for
// starting values 0, 1 and +Inf (peakScanInputs). ScanBest on the AVX2
// plan, ScanBest on the Go loops and the per-sample oracle refScanBest must
// then agree on index, value and neighbors, bit for bit, for a Gaussian
// signal and for an edge-mix signal and a Gaussian one with a 1e308
// sample, whose transforms overflow to ±Inf and NaN, with skip
// intervals that end just before, start at and straddle each template's
// first wrapped output, or leave only the outputs next to it. Without
// AVX2 it checks the Go loops and then skips.
func TestPeakScanKernelsBitIdentical(t *testing.T) {
	if haveAVX2 {
		lens := []int{4064, 4096}
		for n := 0; n <= 40; n++ {
			lens = append(lens, n)
		}
		for _, n := range lens {
			for vi, v := range peakScanInputs(n, uint64(n)) {
				for _, s := range []float64{1.0 / 4096, 1, 1e200} {
					for _, best := range []float64{0, 1, math.Inf(1)} {
						wi, ws := peakScan(v, s, best)
						gi, gs := peakScanAVX2(v, s, best)
						if gi != wi || math.Float64bits(gs) != math.Float64bits(ws) {
							t.Fatalf("input %d, n=%d s=%g best=%g: AVX2 (%d, %g), Go (%d, %g)", vi, n, s, best, gi, gs, wi, ws)
						}
					}
				}
			}
		}
	}
	for _, c := range []struct {
		sigLen int
		tmpls  []int
	}{
		{300, []int{9, 215, 255}},
		{4064, []int{9, 37, 113}},
	} {
		tmpls := spectralTestTemplates(c.tmpls...)
		b, err := NewSpectralBank(tmpls, c.sigLen)
		if err != nil {
			t.Fatal(err)
		}
		huge := seededSignal(c.sigLen, 5)
		huge[c.sigLen/3] = 1e308
		for si, sig := range [][]complex128{seededSignal(c.sigLen, 3), edgeComplex(c.sigLen, 4), huge} {
			if err := b.Ingest(sig); err != nil {
				t.Fatal(err)
			}
			for ti := range tmpls {
				w := b.m - len(b.tmpls[ti].taps) + 1
				for _, skip := range [][]SkipInterval{
					nil,
					{{Lo: w - 1, Hi: w - 1}},
					{{Lo: w, Hi: w}},
					{{Lo: w - 2, Hi: w + 2}},
					{{Lo: 0, Hi: w - 1}},
					{{Lo: 3, Hi: 5}, {Lo: 17, Hi: 17}, {Lo: w - 3, Hi: w}, {Lo: w + 1, Hi: w + 4}},
					{{Lo: 0, Hi: w - 2}, {Lo: w, Hi: c.sigLen - 1}},
					{{Lo: 0, Hi: w - 1}, {Lo: w + 1, Hi: c.sigLen - 1}},
					{{Lo: 0, Hi: w - 3}, {Lo: w + 2, Hi: c.sigLen - 1}},
				} {
					checkScanBest(t, b, ti, clipSkip(skip, c.sigLen), fmt.Sprintf("signal %d", si))
				}
			}
		}
	}
	if !haveAVX2 {
		t.Skip("CPU without AVX2: checked the Go loops against the oracle only")
	}
}

// clipSkip drops the parts of skip outside [0, n) and the intervals left
// empty, keeping them ascending and disjoint.
func clipSkip(skip []SkipInterval, n int) []SkipInterval {
	var out []SkipInterval
	for _, iv := range skip {
		iv.Lo, iv.Hi = max(iv.Lo, 0), min(iv.Hi, n-1)
		if iv.Lo <= iv.Hi {
			out = append(out, iv)
		}
	}
	return out
}

// checkScanBest fails unless ScanBest of template t on b (which runs the
// AVX2 kernels when its plan records them), ScanBest on a clone of b that
// runs the Go loops, and refScanBest agree on index and on the bits of
// the value and the three neighbors.
func checkScanBest(t testing.TB, b *SpectralBank, ti int, skip []SkipInterval, what string) {
	t.Helper()
	g := goKernelBank(b)
	type result struct {
		idx int
		sq  float64
		y3  [3]complex128
	}
	var res [3]result
	for k, bank := range []*SpectralBank{b, g} {
		idx, sq, y3, err := bank.ScanBest(bank.NewScratch(), ti, skip)
		if err != nil {
			t.Fatal(err)
		}
		res[k] = result{idx, sq, y3}
	}
	idx, sq, y3 := refScanBest(b, ti, skip)
	res[2] = result{idx, sq, y3}
	for k, name := range []string{"ScanBest", "Go-loop ScanBest"} {
		got, want := res[k], res[2]
		if got.idx != want.idx || math.Float64bits(got.sq) != math.Float64bits(want.sq) ||
			firstBitDiff(got.y3[:], want.y3[:]) >= 0 {
			t.Fatalf("%s, template %d, skip %v: %s (%d, %g, %v), oracle (%d, %g, %v)",
				what, ti, skip, name, got.idx, got.sq, got.y3, want.idx, want.sq, want.y3)
		}
	}
}

// goKernelBank returns a clone of b that holds b's signal and runs the Go
// butterfly and scan loops.
func goKernelBank(b *SpectralBank) *SpectralBank {
	g := b.Clone()
	g.plan = goKernelPlan(b.plan)
	copy(g.specRev, b.specRev)
	copy(g.prefix, b.prefix)
	return g
}

// rawSamples decodes up to 64 complex samples from data, 16 little-endian
// bytes each, keeping every bit pattern, NaN and ±Inf included.
func rawSamples(data []byte) []complex128 {
	n := min(len(data)/16, 64)
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:])),
			math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:])))
	}
	return out
}

// FuzzScanBest pins the peak scan on fuzzed input two ways. peakScanAVX2
// must match peakScan on the raw decoded samples, any bits, at a fuzzed
// scale and starting value. Then a one-template bank of 300-sample
// signals, with the fuzzed template length deciding whether and where the
// tail wraps, scans the samples repeated to a signal (when finite) with
// one fuzzed skip interval placed relative to the first wrapped output;
// ScanBest on the AVX2 plan, on the Go loops and refScanBest must agree
// bit for bit (checkScanBest).
func FuzzScanBest(f *testing.F) {
	f.Add(bytes.Repeat(fuzzSample, 20), 1.0/512, 0.0, uint16(254), int16(0), uint8(4))
	f.Add(bytes.Repeat(fuzzSample, 9), 1.0, 1.0, uint16(8), int16(-20), uint8(0))
	f.Add(make([]byte, 64), 1e200, math.Inf(1), uint16(299), int16(3), uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, s, best float64, tmplLen uint16, skipAt int16, skipW uint8) {
		if !haveAVX2 {
			t.Skip("CPU without AVX2: the Go loop is the only path")
		}
		v := rawSamples(data)
		wi, ws := peakScan(v, s, best)
		gi, gs := peakScanAVX2(v, s, best)
		if gi != wi || math.Float64bits(gs) != math.Float64bits(ws) {
			t.Fatalf("%d samples, s=%g best=%g: AVX2 (%d, %g), Go (%d, %g)", len(v), s, best, gi, gs, wi, ws)
		}
		const sigLen = 300
		sig := fuzzTaps(data, sigLen)
		if sig == nil {
			return
		}
		b, err := NewSpectralBank(spectralTestTemplates(1+int(tmplLen)%sigLen), sigLen)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Ingest(sig); err != nil {
			t.Fatal(err)
		}
		lo := b.m - len(b.tmpls[0].taps) + 1 + int(skipAt)
		skip := clipSkip([]SkipInterval{{Lo: lo, Hi: lo + int(skipW%16)}}, sigLen)
		checkScanBest(t, b, 0, skip, "fuzz")
	})
}

// BenchmarkUpsampleAddSegment4x times the detector's per-subtraction
// update of its up-sampled residual on the Go loop and the AVX2 kernel: a
// segment added into the 4× up-sampled 1016-tap CIR, at the lengths the
// museum's three pulse shapes render at T_s (11, 20 and 25 samples) and
// the widest of the 108-shape bank (29). The work depends on the length
// alone, so the segments are Gaussian.
func BenchmarkUpsampleAddSegment4x(bm *testing.B) {
	p, err := NewUpsamplePlan(1016, 4)
	if err != nil {
		bm.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		segLen int
	}{{"museum-11", 11}, {"museum-20", 20}, {"museum-25", 25}, {"bank108-29", 29}} {
		for _, k := range kernelNames() {
			plan := p
			if k == "go" {
				plan = goUpsamplePlan(p)
			}
			bm.Run(c.name+"/"+k, func(b *testing.B) {
				dst, seg := randComplex(4064, 1), randComplex(c.segLen, 2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					plan.AddSegment(dst, seg, 500)
				}
				kernelSink = dst
			})
		}
	}
}

// scanSink keeps BenchmarkScanBest's results live.
var scanSink int

// BenchmarkScanBest times ScanBest's peak scan on the Go loop and the AVX2
// kernel over the 4064 unwrapped-length samples of a 4096-point scan
// (peak-4064), and whole ScanBest calls of a 3-template bank on a
// 4064-sample signal with four skip intervals (bank-4064), the inverse
// FFT included, whose Go leg also runs the Go butterflies.
func BenchmarkScanBest(bm *testing.B) {
	v := randComplex(4064, 3)
	tmpls := spectralTestTemplates(41, 77, 97)
	b, err := NewSpectralBank(tmpls, 4064)
	if err != nil {
		bm.Fatal(err)
	}
	if err := b.Ingest(seededSignal(4064, 4)); err != nil {
		bm.Fatal(err)
	}
	g := goKernelBank(b)
	skip := []SkipInterval{{Lo: 400, Hi: 403}, {Lo: 1200, Hi: 1203}, {Lo: 2500, Hi: 2503}, {Lo: 3100, Hi: 3103}}
	for _, k := range kernelNames() {
		scan, bank := peakScanAVX2, b
		if k == "go" {
			scan, bank = peakScan, g
		}
		bm.Run("peak-4064/"+k, func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				scanSink, _ = scan(v, 1.0/4096, 0)
			}
		})
		bm.Run("bank-4064/"+k, func(bb *testing.B) {
			scratch := bank.NewScratch()
			bb.ResetTimer()
			for i := 0; i < bb.N; i++ {
				for t := range tmpls {
					idx, _, _, err := bank.ScanBest(scratch, t, skip)
					if err != nil {
						bb.Fatal(err)
					}
					scanSink = idx
				}
			}
		})
	}
}

// kernelNames lists the kernels this CPU runs: the Go loops, and AVX2
// where the CPU has it.
func kernelNames() []string {
	if haveAVX2 {
		return []string{"go", "avx2"}
	}
	return []string{"go"}
}
