package dsp

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// This file pins the kernels of SpectralBank's per-round passes — Ingest's
// gathered first pass and bit-reversed last stage pair, the scan's
// peak-recording last stage pair and its tail repair — to their Go loops
// bit for bit, and both to the passes as they ran before their fusion
// (reference_test.go), NaN bits included.

// ingestInputs returns the signals the Ingest tests transform: Gaussian
// samples, the edge mix of edgeComplex (whose sums overflow to ±Inf and
// NaN), and Gaussian samples with ±Inf planted.
func ingestInputs(n int, seed uint64) [][]complex128 {
	inf := randComplex(n, seed+2)
	for i := 1; i < n; i += 7 {
		inf[i] = complex(math.Inf(1-2*(i%2)), imag(inf[i]))
	}
	return [][]complex128{randComplex(n, seed), edgeComplex(n, seed+1), inf}
}

// checkSpectrumRev fails unless spectrumRev of sig on the Go loops and,
// when p records it, on the AVX2 kernels gives refSpectrumRev's bits.
func checkSpectrumRev(t testing.TB, p *fftPlan, sig []complex128, what string) {
	t.Helper()
	want := refSpectrumRev(p, sig)
	plans := []*fftPlan{goKernelPlan(p)}
	if p.avx2 {
		plans = append(plans, p)
	}
	for _, q := range plans {
		got := edgeComplex(p.n, 9) // spectrumRev must overwrite every bin
		q.spectrumRev(got, sig)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("%s: n=%d, %d-sample signal, avx2=%v: bin %d (bit-reversed) = %v, oracle %v",
				what, p.n, len(sig), q.avx2, i, got[i], want[i])
		}
	}
}

// TestIngestKernelsBitIdentical pins Ingest's transform (spectrumRev) to
// clear-copy-transform-permuteInto on the Go loops at every power-of-two
// length from 1 to 16384 — lengths whose last pass is a stage pair store
// bit-reversed, the others permute — for signals of 1, n/2+1, n−32, n−1
// and n samples. It then pins the two kernels on their own: the gathered
// first pass against the swap loop and firstPass, and the bit-reversed
// stage pair against stagePair and permuteInto, AVX2 and Go. Without AVX2
// it checks the Go loops and then skips.
func TestIngestKernelsBitIdentical(t *testing.T) {
	for n := 1; n <= 16384; n <<= 1 {
		p, err := newFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, sigLen := range []int{1, n/2 + 1, n - 32, n - 1, n} {
			if sigLen < 1 || sigLen > n || seen[sigLen] {
				continue
			}
			seen[sigLen] = true
			for k, sig := range ingestInputs(sigLen, uint64(n+sigLen)) {
				checkSpectrumRev(t, p, sig, fmt.Sprintf("input %d", k))
			}
		}
		if n < 4 {
			continue
		}
		w4 := p.fwd[2]
		sig := edgeComplex(n-3, uint64(n))
		want := make([]complex128, n)
		copy(want, sig)
		for _, sw := range p.swaps {
			want[sw[0]], want[sw[1]] = want[sw[1]], want[sw[0]]
		}
		firstPass(want, w4)
		pinKernel(t, fmt.Sprintf("n=%d gathered first pass", n), want,
			func(v []complex128) { gatherFirstPass(v, sig, p.rev, w4) },
			func(v []complex128) { gatherFirstPassAVX2(v, sig, p.rev, w4) })
		if !p.lastPair {
			continue
		}
		twS, tw2 := p.lastTwiddles(p.fwd)
		in := edgeComplex(n, uint64(3*n))
		passed := Clone(in)
		stagePair(passed, twS, tw2)
		want = make([]complex128, n)
		p.permuteInto(want, passed)
		pinKernel(t, fmt.Sprintf("n=%d bit-reversed stage pair", n), want,
			func(v []complex128) { copy(v, in); stagePairRev(v, twS, tw2, p.swaps) },
			func(v []complex128) { copy(v, in); stagePairRevAVX2(v, twS, tw2, p.rev) })
	}
	if !haveAVX2 {
		t.Skip("CPU without AVX2: checked the Go loops against the oracle only")
	}
}

// pinKernel fails unless goRun and, on a CPU with AVX2, avxRun fill a
// buffer (prefilled with the edge mix) with want's bits.
func pinKernel(t testing.TB, what string, want []complex128, goRun, avxRun func(v []complex128)) {
	t.Helper()
	runs := []func([]complex128){goRun}
	if haveAVX2 {
		runs = append(runs, avxRun)
	}
	for k, run := range runs {
		got := edgeComplex(len(want), 11)
		run(got)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("%s, kernel %d: sample %d = %v, oracle %v", what, k, i, got[i], want[i])
		}
	}
}

// unitTwiddles returns the twiddles of a final stage pair on n samples,
// all exactly 1+0i. With them and v zero outside its first quarter, the
// pair's output j of every quarter is v[j] (up to the sign of a zero),
// so a test sets the outputs the peak records see directly.
func unitTwiddles(n int) (twS, tw2 []complex128) {
	twS, tw2 = make([]complex128, n/4), make([]complex128, n/2)
	for i := range twS {
		twS[i] = 1
	}
	for i := range tw2 {
		tw2[i] = 1
	}
	return twS, tw2
}

// peakPatterns returns first quarters (n/4 samples) whose blocks hold what
// the peak records must get right: equal maxima in the even and the odd
// lanes with either one first, a repeated maximum within one lane, NaN
// before, among and instead of the values, ±Inf, all-zero blocks, a lone
// −0, and magnitudes of 1e200 whose squares overflow.
func peakPatterns(n int, seed uint64) [][]complex128 {
	q := n / 4
	nan, inf := math.NaN(), math.Inf(1)
	ties := randComplex(q, seed)
	for b := 0; b+peakBlock <= q; b += peakBlock {
		switch b / peakBlock % 5 {
		case 0: // even lane first
			ties[b+4], ties[b+9] = complex(3, 4), complex(-4, 3)
		case 1: // odd lane first
			ties[b+3], ties[b+6] = complex(5, 0), complex(0, -5)
		case 2: // within one lane, and the other lane equal later
			ties[b+2], ties[b+10], ties[b+15] = complex(0, 7), complex(7, 0), complex(-7, 0)
		case 3: // all equal
			for i := b; i < b+peakBlock; i++ {
				ties[i] = complex(2, 2)
			}
		case 4: // all zero
			for i := b; i < b+peakBlock; i++ {
				ties[i] = 0
			}
			ties[b+5] = complex(math.Copysign(0, -1), 0)
		}
	}
	special := randComplex(q, seed+1)
	for i := range special {
		switch i % 11 {
		case 1:
			special[i] = complex(nan, 1)
		case 4:
			special[i] = complex(0, inf)
		case 7:
			special[i] = complex(-inf, -inf)
		case 9:
			special[i] = complex(1e200, -1e200)
		}
	}
	nanOnly := make([]complex128, q)
	for i := range nanOnly {
		nanOnly[i] = complex(nan, float64(i))
	}
	return [][]complex128{ties, special, nanOnly, edgeComplex(q, seed+2), make([]complex128, q)}
}

// checkPeakRecords fails unless stagePairPeaks on the Go loop and, with
// AVX2, the kernel leave stagePair's outputs and refPeaks' records, bit
// for bit.
func checkPeakRecords(t testing.TB, in, twS, tw2 []complex128, s float64, what string) {
	t.Helper()
	n := len(in)
	want := Clone(in)
	stagePair(want, twS, tw2)
	wantPeaks := refPeaks(want, s)
	kernels := []func(v, twS, tw2 []complex128, s float64, peaks []complex128){stagePairPeaks}
	if haveAVX2 {
		kernels = append(kernels, stagePairPeaksAVX2)
	}
	for k, run := range kernels {
		got, peaks := Clone(in), edgeComplex(n/peakBlock, 5)
		run(got, twS, tw2, s, peaks)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("%s: n=%d s=%g kernel %d: output %d = %v, stagePair %v", what, n, s, k, i, got[i], want[i])
		}
		if i := firstBitDiff(peaks, wantPeaks); i >= 0 {
			t.Fatalf("%s: n=%d s=%g kernel %d: block %d record %v, oracle %v", what, n, s, k, i, peaks[i], wantPeaks[i])
		}
	}
}

// TestScanEpilogueBitIdentical pins the peak records of ScanBest's last
// pass. On unit twiddles, whose outputs are the planted first quarter
// (peakPatterns), the records of stagePairPeaks and its AVX2 twin must
// equal peakScan's per block at scales 1/n, 1 and 1e200. On every plan
// that records peaks (n = 64 to 16384, stage-pair last passes),
// productTransformPeaks must equal the product transform followed by the
// block scans (refProductPeaks), outputs and records, for Gaussian and
// edge-mix operands. Without AVX2 it checks the Go loops and then skips.
func TestScanEpilogueBitIdentical(t *testing.T) {
	for _, n := range []int{64, 256, 1024, 4096} {
		twS, tw2 := unitTwiddles(n)
		for pi, quarter := range peakPatterns(n, uint64(n)) {
			in := make([]complex128, n)
			copy(in, quarter)
			for _, s := range []float64{1 / float64(n), 1, 1e200} {
				checkPeakRecords(t, in, twS, tw2, s, fmt.Sprintf("pattern %d", pi))
			}
		}
		p, err := newFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		in := edgeComplex(n, uint64(n)+1)
		for _, tw := range [][]complex128{p.fwd, p.inv} {
			twS, tw2 := p.lastTwiddles(tw)
			checkPeakRecords(t, in, twS, tw2, 1/float64(n), "plan twiddles, edge mix")
		}
	}
	for n := 16; n <= 16384; n <<= 1 {
		p, err := newFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.peakEpilogue() != (p.lastPair && n >= 64) {
			t.Fatalf("n=%d: peakEpilogue %v with lastPair %v", n, p.peakEpilogue(), p.lastPair)
		}
		if !p.peakEpilogue() {
			continue
		}
		for k, ops := range [][2][]complex128{
			{randComplex(n, uint64(n)), randComplex(n, uint64(n)+1)},
			{edgeComplex(n, uint64(n)+2), randComplex(n, uint64(n)+3)},
		} {
			s := 1 / float64(n)
			want, wantPeaks := refProductPeaks(p, ops[0], ops[1], p.inv, s)
			plans := []*fftPlan{goKernelPlan(p)}
			if p.avx2 {
				plans = append(plans, p)
			}
			for _, q := range plans {
				got, peaks := make([]complex128, n), make([]complex128, n/peakBlock)
				q.productTransformPeaks(got, ops[0], ops[1], q.inv, s, peaks)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("n=%d operands %d avx2=%v: output %d = %v, oracle %v", n, k, q.avx2, i, got[i], want[i])
				}
				if i := firstBitDiff(peaks, wantPeaks); i >= 0 {
					t.Fatalf("n=%d operands %d avx2=%v: block %d record %v, oracle %v", n, k, q.avx2, i, peaks[i], wantPeaks[i])
				}
			}
		}
	}
	if !haveAVX2 {
		t.Skip("CPU without AVX2: checked the Go loops against the oracle only")
	}
}

// TestBlockScanBitIdentical pins ScanBest's scan of an unwrapped stretch
// through the peak records: blockScan of v[lo:hi] must return peakScan's
// index and the bits of its value for every stretch whose ends fall on,
// just before and just after block edges and inside blocks, at starting
// values 0, 1 and +Inf and scales 1/n, 1 and 1e200, on vectors holding
// ties within and across lanes and blocks, NaN, ±Inf and the edge mix
// (peakPatterns, repeated over all four quarters), with the records of
// refPeaks and the scan on the Go loop and the AVX2 kernel.
func TestBlockScanBitIdentical(t *testing.T) {
	const n = 256
	ends := []int{0, 1, 15, 16, 17, 31, 32, 33, 40, 63, 64, 100, 127, 128, 200, 239, 240, 241, 255, 256}
	scans := []func([]complex128, float64, float64) (int, float64){peakScan}
	if haveAVX2 {
		scans = append(scans, peakScanAVX2)
	}
	var vecs [][]complex128
	for _, quarter := range peakPatterns(n, 7) {
		v := make([]complex128, n)
		for q := 0; q < 4; q++ {
			copy(v[q*n/4:], quarter)
		}
		vecs = append(vecs, v)
	}
	ties := make([]complex128, n) // one maximum in many blocks, and at block edges
	for i := range ties {
		ties[i] = complex(float64(i%5), 0)
		if i%16 == 0 || i%37 == 0 {
			ties[i] = complex(0, 9)
		}
	}
	for pi, v := range append(vecs, ties) {
		for _, s := range []float64{1.0 / n, 1, 1e200} {
			peaks := refPeaks(v, s)
			for _, best := range []float64{0, 1, math.Inf(1)} {
				for _, lo := range ends {
					for _, hi := range ends {
						if hi < lo {
							continue
						}
						wi, ws := peakScan(v[lo:hi], s, best)
						if wi >= 0 {
							wi += lo
						}
						for k, scan := range scans {
							gi, gs := blockScan(v, peaks, lo, hi, s, best, scan)
							if gi != wi || math.Float64bits(gs) != math.Float64bits(ws) {
								t.Fatalf("pattern %d s=%g best=%g [%d, %d) scan %d: blockScan (%d, %g), peakScan (%d, %g)",
									pi, s, best, lo, hi, k, gi, gs, wi, ws)
							}
						}
					}
				}
			}
		}
	}
	if !haveAVX2 {
		t.Skip("CPU without AVX2: checked the Go scan only")
	}
}

// TestTailRepairKernelsBitIdentical pins ScanBest's tail repair:
// tailRepair and tailRepairAVX2 must give refTailRepair's bits for every
// output count from 0 to 40 and for 67, 83 and 100 (the wrapped tails of
// the museum and 108-shape banks run to ~83), on Gaussian taps and
// prefixes, on the edge mix (whose products overflow to ±Inf and NaN),
// and on Gaussian ones with ±Inf planted. Without AVX2 it checks the Go
// loop and then skips.
func TestTailRepairKernelsBitIdentical(t *testing.T) {
	lens := []int{67, 83, 100}
	for n := 0; n <= 40; n++ {
		lens = append(lens, n)
	}
	for _, n := range lens {
		inf := randComplex(n+5, uint64(n)+7)
		for i := 2; i < len(inf); i += 5 {
			inf[i] = complex(imag(inf[i]), math.Inf(1-2*(i%2)))
		}
		inputs := [][2][]complex128{
			{randComplex(n+3, uint64(n)), randComplex(n+1, uint64(n)+1)},
			{edgeComplex(n+1, uint64(n)+2), edgeComplex(n+2, uint64(n)+3)},
			{inf, randComplex(n, uint64(n)+4)},
			{randComplex(n+2, uint64(n)+5), inf},
		}
		for k, in := range inputs {
			taps, prefix := in[0], in[1]
			want := make([]complex128, n)
			refTailRepair(want, taps, prefix)
			kernels := []func(fp, taps, prefix []complex128){tailRepair}
			if haveAVX2 {
				kernels = append(kernels, tailRepairAVX2)
			}
			for ki, run := range kernels {
				got := edgeComplex(n, 3) // every output must be overwritten
				run(got, taps, prefix)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%d outputs, inputs %d, kernel %d: output %d = %v, oracle %v", n, k, ki, i, got[i], want[i])
				}
			}
		}
	}
	if !haveAVX2 {
		t.Skip("CPU without AVX2: checked the Go loop against the oracle only")
	}
}

// FuzzIngest pins Ingest's transform on fuzzed finite samples, repeated
// to a fuzzed signal length up to the plan's, at a fuzzed power-of-two
// length from 1 to 4096 (checkSpectrumRev: the Go loops and the AVX2
// kernels against clear-copy-transform-permuteInto).
func FuzzIngest(f *testing.F) {
	f.Add(uint8(12), uint16(4064), bytes.Repeat(fuzzSample, 8))
	f.Add(uint8(4), uint16(15), fuzzSample)
	f.Add(uint8(9), uint16(300), bytes.Repeat(fuzzSample, 33))
	f.Add(uint8(0), uint16(0), make([]byte, 32))
	f.Fuzz(func(t *testing.T, logN uint8, sigLen uint16, data []byte) {
		n := 1 << (logN % 13)
		sig := fuzzTaps(data, 1+int(sigLen)%n)
		if sig == nil {
			t.Skip()
		}
		p, err := newFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		checkSpectrumRev(t, p, sig, "fuzz")
	})
}

// BenchmarkIngest times SpectralBank.Ingest on the Go loops and the AVX2
// kernels: the detector's 4× up-sampled 1016-tap CIR (4064 samples) into
// its 4096-point bank.
func BenchmarkIngest(bm *testing.B) {
	b, err := NewSpectralBank(spectralTestTemplates(41, 77, 97), 4064)
	if err != nil {
		bm.Fatal(err)
	}
	g := goKernelBank(b)
	sig := seededSignal(4064, 4)
	for _, k := range kernelNames() {
		bank := b
		if k == "go" {
			bank = g
		}
		bm.Run(k, func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				if err := bank.Ingest(sig); err != nil {
					bb.Fatal(err)
				}
			}
		})
	}
}
