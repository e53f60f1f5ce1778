package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// This file implements the package's one transform engine, the plans the
// detector runs: fftPlan (radix-2 Cooley–Tukey), dftPlan (Bluestein's
// algorithm on an fftPlan for other lengths), and on top of them
// UpsamplePlan and MatchedFilterBank (SpectralBank lives in spectral.go).
// Each plan precomputes the bit-reversal permutation, twiddle factors and
// Bluestein chirp spectra once for a fixed length, FFTW-style, and reuses
// scratch buffers across executions. The tables hold exactly the values
// the textbook on-the-fly recurrences generate and the butterfly order is
// the textbook one, so every plan is bit-identical to the unplanned
// transforms kept as the test reference (reference_test.go). On amd64
// CPUs with AVX2 the butterfly loops run in the assembly of fft_amd64.s,
// which is bit-identical to the Go loops below (kernel_test.go pins both).
//
// Plans hold scratch state and are therefore NOT safe for concurrent use;
// give each goroutine its own plan.

// fftPlan is a precomputed radix-2 Cooley–Tukey plan for one fixed
// power-of-two length: the bit-reversal permutation and the per-stage
// twiddle factors of both directions.
type fftPlan struct {
	n     int
	swaps [][2]int32
	rev   []int32      // full bit-reversal index table (rev[i] = reverse of i)
	fwd   []complex128 // forward twiddles, one block of size/2 per stage
	inv   []complex128 // inverse twiddles, same layout
	avx2  bool         // run the butterfly loops on the AVX2 kernels (fft_amd64.s)
	// lastPair reports that the last two stages run as one stage pair
	// over the whole array (log2 n even, n ≥ 16): the pass whose stores
	// spectrumRev and productTransformPeaks change.
	lastPair bool
}

// newFFTPlan builds a plan for transforms of length n, which must be a
// power of two (and at least 1).
func newFFTPlan(n int) (*fftPlan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT plan length %d is not a power of two", n)
	}
	p := &fftPlan{n: n, avx2: haveAVX2, lastPair: n >= 16 && bits.TrailingZeros(uint(n))%2 == 0}
	if n == 1 {
		p.rev = []int32{0}
		return p, nil
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	p.rev = make([]int32, n)
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		p.rev[i] = int32(j)
		if j > i {
			p.swaps = append(p.swaps, [2]int32{int32(i), int32(j)})
		}
	}
	p.fwd = twiddles(n, false)
	p.inv = twiddles(n, true)
	return p, nil
}

// twiddles generates the per-stage twiddle factors with the textbook
// recurrence w ← w·e^{±2πi/size}, so planned butterflies are bit-identical
// to an unplanned radix-2 transform that recomputes them per call.
func twiddles(n int, inverse bool) []complex128 {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	out := make([]complex128, 0, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wBase := complex(math.Cos(step), math.Sin(step))
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			out = append(out, w)
			w *= wBase
		}
	}
	return out
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

func (p *fftPlan) mustLen(v []complex128) {
	if len(v) != p.n {
		panic(fmt.Sprintf("dsp: plan of length %d executed on %d samples", p.n, len(v)))
	}
}

// transform runs the butterfly passes with a precomputed twiddle table; no
// normalization is applied (the Bluestein driver needs the raw inverse).
func (p *fftPlan) transform(v []complex128, tw []complex128) {
	if p.n <= 1 {
		return
	}
	reverse(v, p.swaps)
	p.passes(v, tw)
}

// reverse permutes v into bit-reversed order in place, v[i] ↔ v[rev[i]],
// through the plan's swap list.
func reverse(v []complex128, swaps [][2]int32) {
	for _, s := range swaps {
		v[s[0]], v[s[1]] = v[s[1]], v[s[0]]
	}
}

// productTransform fills v with the elementwise product a⊙b and runs the
// butterfly passes on it — equivalent to writing the products in index
// order and calling transform, but one array traversal cheaper: the
// bit-reversal permutation is applied while the products are written, so
// the separate swap pass disappears. Each product is computed from the
// same two operands either way, so results are bit-identical.
func (p *fftPlan) productTransform(v, a, b []complex128, tw []complex128) {
	p.mustLen(v)
	p.mustLen(a)
	p.mustLen(b)
	n := p.n
	switch {
	case n <= 1:
		if n == 1 {
			v[0] = a[0] * b[0]
		}
		return
	case n == 2:
		x0, x1 := a[0]*b[0], a[1]*b[1]
		v[0], v[1] = x0+x1, x0-x1
		return
	}
	// Permutation, product, and the first two butterfly stages all fuse
	// into one pass: each product is loaded through the bit-reversal
	// table and fed straight into the size-2 and size-4 butterflies of
	// its 4-sample block, skipping two full store/reload traversals.
	// Every operation still sees the same operands in the same order, so
	// results are bit-identical to the staged form.
	w4 := tw[2]
	for i := 0; i < n; i += 4 {
		r := p.rev[i : i+4 : i+4]
		x0 := a[r[0]] * b[r[0]]
		x1 := a[r[1]] * b[r[1]]
		x2 := a[r[2]] * b[r[2]]
		x3 := a[r[3]] * b[r[3]]
		b0, b1 := x0+x1, x0-x1
		b2, b3 := x2+x3, x2-x3
		t := b3 * w4
		q := v[i : i+4 : i+4]
		q[0], q[2] = b0+b2, b0-b2
		q[1], q[3] = b1+t, b1-t
	}
	p.tailPasses(v, tw)
}

// productTransformPermuted is productTransform for operands that are
// already stored in bit-reversed order (see reverse): the products
// stream sequentially through memory with no gathers. Each product pairs
// the same two values as the natural-order form, so results are
// bit-identical.
func (p *fftPlan) productTransformPermuted(v, ar, br []complex128, tw []complex128) {
	p.mustLen(v)
	p.mustLen(ar)
	p.mustLen(br)
	n := p.n
	switch {
	case n <= 1:
		if n == 1 {
			v[0] = ar[0] * br[0]
		}
		return
	case n == 2:
		x0, x1 := ar[0]*br[0], ar[1]*br[1]
		v[0], v[1] = x0+x1, x0-x1
		return
	}
	if p.avx2 {
		productFirstPassAVX2(v, ar, br, tw[2])
	} else {
		productFirstPass(v, ar, br, tw[2])
	}
	p.tailPasses(v, tw)
}

// productFirstPass is the first pass of productTransformPermuted: it forms
// the products of the bit-reversed operands and runs the size-2 and
// size-4 butterflies of each 4-sample block on them (see passes), with w4
// the size-4 stage's k = 1 twiddle.
func productFirstPass(v, ar, br []complex128, w4 complex128) {
	for i := 0; i < len(v); i += 4 {
		x0 := ar[i] * br[i]
		x1 := ar[i+1] * br[i+1]
		x2 := ar[i+2] * br[i+2]
		x3 := ar[i+3] * br[i+3]
		b0, b1 := x0+x1, x0-x1
		b2, b3 := x2+x3, x2-x3
		t := b3 * w4
		q := v[i : i+4 : i+4]
		q[0], q[2] = b0+b2, b0-b2
		q[1], q[3] = b1+t, b1-t
	}
}

// passes runs the butterfly stages over already-permuted data.
func (p *fftPlan) passes(v []complex128, tw []complex128) {
	n := p.n
	if n == 2 {
		a, b := v[0], v[1]
		v[0], v[1] = a+b, a-b
		return
	}
	if p.avx2 {
		firstPassAVX2(v, tw[2])
	} else {
		firstPass(v, tw[2])
	}
	p.tailPasses(v, tw)
}

// firstPass runs the size-2 and size-4 stages. They touch disjoint
// 4-sample blocks, so both run fused in a single pass over the data,
// skipping the intermediate stores and reloads. Their only non-trivial
// twiddle factor is w4 = tw[2] (size-4 stage, k = 1); the others are
// exactly 1+0i (the twiddle recurrence starts at 1), so those multiplies
// are skipped. Each butterfly still sees the same operands in the same
// order, so results stay bit-identical to the staged form.
func firstPass(v []complex128, w4 complex128) {
	for i := 0; i < len(v); i += 4 {
		q := v[i : i+4 : i+4]
		b0, b1 := q[0]+q[1], q[0]-q[1]
		b2, b3 := q[2]+q[3], q[2]-q[3]
		t := b3 * w4
		q[0], q[2] = b0+b2, b0-b2
		q[1], q[3] = b1+t, b1-t
	}
}

// tailPasses runs the butterfly stages from size 8 upward; the size-2
// and size-4 stages must already have been applied by one of the fused
// entry passes above. Stages are consumed two at a time where possible
// (stagePair), and an odd stage count ends on one plain radix-2 stage
// (radix2Stage).
func (p *fftPlan) tailPasses(v []complex128, tw []complex128) {
	n := p.n
	off, size := p.stagePairs(v, tw, n)
	// At most one stage remains (odd tail-stage count).
	for ; size <= n; size <<= 1 {
		half := size >> 1
		stage := tw[off : off+half]
		if p.avx2 {
			radix2StageAVX2(v, stage)
		} else {
			radix2Stage(v, stage)
		}
		off += half
	}
}

// stagePairs runs the stage pairs from size 8 upward whose size-2s stage
// is at most limit, and returns the twiddle offset and the size of the
// first stage it left.
func (p *fftPlan) stagePairs(v []complex128, tw []complex128, limit int) (off, size int) {
	off = 3 // past the twiddle blocks of the size-2 and size-4 stages
	size = 8
	for ; 2*size <= limit; size <<= 2 {
		s := size
		half := s >> 1
		twS := tw[off : off+half]        // size-s stage twiddles
		tw2 := tw[off+half : off+half+s] // size-2s stage twiddles
		if p.avx2 {
			stagePairAVX2(v, twS, tw2)
		} else {
			stagePair(v, twS, tw2)
		}
		off += half + s
	}
	return off, size
}

// lastTwiddles returns the twiddles of a lastPair plan's final stage
// pair, the last two blocks of tw: its size-n/2 and size-n stages.
func (p *fftPlan) lastTwiddles(tw []complex128) (twS, tw2 []complex128) {
	n := p.n
	return tw[n-1-n/2-n/4 : n-1-n/2], tw[n-1-n/2:]
}

// spectrumRev writes the forward transform of sig, zero-padded to the
// plan's length (len(sig) ≤ n), into v in bit-reversed order: v[i] =
// X[rev[i]], the layout productTransformPermuted reads. The passes move
// each sample once: the first pass gathers sig through the reversal
// table straight into the fused size-2/size-4 butterflies
// (gatherFirstPass), and on lastPair plans the final stage pair stores
// every output at its bit-reversed position (stagePairRev). The
// butterflies see the operands of clear-copy-transform-reverse in the
// same order, so v is bit-identical to that form (reference_test.go keeps
// it as the oracle).
func (p *fftPlan) spectrumRev(v, sig []complex128) {
	p.mustLen(v)
	n := p.n
	if len(sig) > n {
		panic(fmt.Sprintf("dsp: %d-sample signal in a plan of length %d", len(sig), n))
	}
	if n < 4 {
		clear(v)
		copy(v, sig)
		p.transform(v, p.fwd)
		reverse(v, p.swaps)
		return
	}
	if p.avx2 {
		gatherFirstPassAVX2(v, sig, p.rev, p.fwd[2])
	} else {
		gatherFirstPass(v, sig, p.rev, p.fwd[2])
	}
	if !p.lastPair {
		p.tailPasses(v, p.fwd)
		reverse(v, p.swaps)
		return
	}
	p.stagePairs(v, p.fwd, n/2)
	twS, tw2 := p.lastTwiddles(p.fwd)
	if p.avx2 {
		stagePairRevAVX2(v, twS, tw2, p.rev)
	} else {
		stagePairRev(v, twS, tw2, p.swaps)
	}
}

// gatherFirstPass is firstPass on sig zero-padded to len(v) and permuted
// through rev: it loads x_k = sig[rev[i+k]], or +0 past the end of sig,
// straight into the size-2 and size-4 butterflies of each 4-sample block.
// Those are the operands firstPass sees after clear, copy and the swap
// loop, so the result is bit-identical.
func gatherFirstPass(v, sig []complex128, rev []int32, w4 complex128) {
	for i := 0; i < len(v); i += 4 {
		var x [4]complex128
		for k, r := range rev[i : i+4 : i+4] {
			if int(r) < len(sig) {
				x[k] = sig[r]
			}
		}
		b0, b1 := x[0]+x[1], x[0]-x[1]
		b2, b3 := x[2]+x[3], x[2]-x[3]
		t := b3 * w4
		q := v[i : i+4 : i+4]
		q[0], q[2] = b0+b2, b0-b2
		q[1], q[3] = b1+t, b1-t
	}
}

// peakBlock is the output block length of productTransformPeaks' records.
const peakBlock = 16

// peakEpilogue reports whether productTransformPeaks runs on p: a final
// stage pair whose quarters hold whole peak blocks.
func (p *fftPlan) peakEpilogue() bool { return p.lastPair && p.n >= 4*peakBlock }

// productTransformPeaks is productTransformPermuted that also records,
// for every block k of peakBlock outputs, peaks[k] = complex(sq, 0) with
// sq the largest (re·s)² + (im·s)² of the block's outputs, or 0 when
// none exceeds 0 — the value peakScan(v[16k:16k+16], s, 0) returns. It
// needs peakEpilogue and len(peaks) = n/peakBlock. The AVX2 kernel takes
// the records from the final stage pair's outputs while they are still
// in registers; the Go loop scans them after the pass. The outputs are
// bit-identical to productTransformPermuted's either way.
func (p *fftPlan) productTransformPeaks(v, ar, br []complex128, tw []complex128, s float64, peaks []complex128) {
	p.mustLen(v)
	p.mustLen(ar)
	p.mustLen(br)
	if !p.peakEpilogue() || len(peaks) != p.n/peakBlock {
		panic(fmt.Sprintf("dsp: peak records of %d blocks on a plan of length %d", len(peaks), p.n))
	}
	if p.avx2 {
		productFirstPassAVX2(v, ar, br, tw[2])
	} else {
		productFirstPass(v, ar, br, tw[2])
	}
	p.stagePairs(v, tw, p.n/2)
	twS, tw2 := p.lastTwiddles(tw)
	if p.avx2 {
		stagePairPeaksAVX2(v, twS, tw2, s, peaks)
	} else {
		stagePairPeaks(v, twS, tw2, s, peaks)
	}
}

// stagePair runs the size-s and size-2s stages on every 2s-sample block
// of v, with s = 2·len(twS) and tw2 the size-2s stage twiddles. Within one
// block, the size-s butterflies of both halves and the size-2s
// butterflies that consume their outputs touch only that block, so the
// stage pair runs in a single traversal of the data. A butterfly's
// operands and operation order are unchanged, so results stay
// bit-identical to running the stages separately.
func stagePair(v, twS, tw2 []complex128) {
	half := len(twS)
	s := 2 * half
	for start := 0; start < len(v); start += 2 * s {
		q := v[start : start+2*s : start+2*s]
		// j = 0: twS[0] and tw2[0] are exactly 1+0i, so two of the
		// three multiplies vanish.
		a0, a1, a2, a3 := q[0], q[half], q[s], q[s+half]
		b0, b1 := a0+a1, a0-a1
		b2, b3 := a2+a3, a2-a3
		q[0], q[s] = b0+b2, b0-b2
		t := b3 * tw2[half]
		q[half], q[s+half] = b1+t, b1-t
		for j := 1; j < half; j++ {
			w1 := twS[j]
			a0, a1, a2, a3 := q[j], q[j+half], q[j+s], q[j+s+half]
			t1 := a1 * w1
			b0, b1 := a0+t1, a0-t1
			t3 := a3 * w1
			b2, b3 := a2+t3, a2-t3
			t := b2 * tw2[j]
			q[j], q[j+s] = b0+t, b0-t
			t = b3 * tw2[j+half]
			q[j+half], q[j+s+half] = b1+t, b1-t
		}
	}
}

// stagePairRev is stagePair on the final stage pair of a transform, whose
// one block is all of v (len(v) = 2s), with every output left at its
// bit-reversed position: stagePair, then reverse. Its AVX2 twin stores
// each output there directly. Butterfly j's outputs q[j], q[j+s],
// q[j+half] and q[j+s+half] belong at rev[j] + 0, 1, 2 and 3: for j < n/4
// the two top bits of j are clear, so rev[j] is a multiple of 4, and
// setting bit log2(n)−1 (+s) or log2(n)−2 (+half) adds 1 or 2 to the
// reversed index.
func stagePairRev(v, twS, tw2 []complex128, swaps [][2]int32) {
	stagePair(v, twS, tw2)
	reverse(v, swaps)
}

// stagePairPeaks is the Go loop of productTransformPeaks' final pass:
// stagePair over the one block v, then peakScan of each peakBlock-output
// block, recorded as complex(sq, 0).
func stagePairPeaks(v, twS, tw2 []complex128, s float64, peaks []complex128) {
	stagePair(v, twS, tw2)
	for k := range peaks {
		_, sq := peakScan(v[k*peakBlock:(k+1)*peakBlock], s, 0)
		peaks[k] = complex(sq, 0)
	}
}

// radix2Stage runs the size-2·len(stage) radix-2 stage on every block of
// v. Each block is split into its two butterfly halves so the inner loop
// indexes each slice from 0 and the compiler drops the per-access bounds
// checks; the k = 0 butterfly skips its multiply because stage[0] is
// exactly 1+0i in every stage (the twiddle recurrence starts at 1). The
// operation order per butterfly is unchanged, so results stay
// bit-identical.
func radix2Stage(v, stage []complex128) {
	half := len(stage)
	size := 2 * half
	for start := 0; start < len(v); start += size {
		lo := v[start : start+half : start+half]
		hi := v[start+half : start+size : start+size]
		a, b := lo[0], hi[0]
		lo[0], hi[0] = a+b, a-b
		for k := 1; k < half && k < len(lo) && k < len(hi); k++ {
			a := lo[k]
			b := hi[k] * stage[k]
			lo[k] = a + b
			hi[k] = a - b
		}
	}
}

// dftPlan is a precomputed plan for one fixed, arbitrary transform length.
// Powers of two run on an fftPlan directly; other lengths run Bluestein's
// algorithm with cached chirp factors, cached chirp-filter spectra and a
// reusable scratch buffer. Like fftPlan it is not safe for concurrent use.
type dftPlan struct {
	n     int
	radix *fftPlan // power-of-two fast path (nil otherwise)

	// Bluestein state for non-power-of-two lengths.
	inner      *fftPlan
	wFwd, wInv []complex128 // chirp factors per direction
	bFwd, bInv []complex128 // spectrum of the chirp filter per direction
	scratch    []complex128
}

// newDFTPlan builds a plan for transforms of length n ≥ 0.
func newDFTPlan(n int) (*dftPlan, error) {
	if n < 0 {
		return nil, fmt.Errorf("dsp: negative DFT plan length %d", n)
	}
	p := &dftPlan{n: n}
	if n <= 1 {
		return p, nil
	}
	if n&(n-1) == 0 {
		p.radix, _ = newFFTPlan(n)
		return p, nil
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.inner, _ = newFFTPlan(m)
	p.scratch = make([]complex128, m)
	p.wFwd, p.bFwd = chirp(n, m, false)
	p.wInv, p.bInv = chirp(n, m, true)
	for _, b := range [][]complex128{p.bFwd, p.bInv} {
		p.inner.transform(b, p.inner.fwd)
	}
	return p, nil
}

// chirp returns the Bluestein chirp factors w[k] = e^{∓iπk²/n} and the
// (time-domain) chirp filter b of length m. The exponent uses k² mod 2n to
// keep the argument small and the cosine/sine accurate for large k.
func chirp(n, m int, inverse bool) (w, b []complex128) {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	w = make([]complex128, n)
	b = make([]complex128, m)
	for k := 0; k < n; k++ {
		ksq := (int64(k) * int64(k)) % int64(2*n)
		phi := sign * math.Pi * float64(ksq) / float64(n)
		w[k] = complex(math.Cos(phi), math.Sin(phi))
		bk := complex(real(w[k]), -imag(w[k])) // conj(w[k])
		b[k] = bk
		if k > 0 {
			b[m-k] = bk
		}
	}
	return w, b
}

// Execute computes the in-place forward DFT of v, which must have the
// plan's length.
func (p *dftPlan) Execute(v []complex128) { p.transformDFT(v, false) }

// ExecuteInverse computes the in-place inverse DFT of v (including the 1/N
// normalization), which must have the plan's length.
func (p *dftPlan) ExecuteInverse(v []complex128) { p.transformDFT(v, true) }

func (p *dftPlan) transformDFT(v []complex128, inverse bool) {
	if len(v) != p.n {
		panic(fmt.Sprintf("dsp: plan of length %d executed on %d samples", p.n, len(v)))
	}
	n := p.n
	if n <= 1 {
		return
	}
	if p.radix != nil {
		tw := p.radix.fwd
		if inverse {
			tw = p.radix.inv
		}
		p.radix.transform(v, tw)
	} else {
		w, bf := p.wFwd, p.bFwd
		if inverse {
			w, bf = p.wInv, p.bInv
		}
		a := p.scratch
		clear(a)
		for k := 0; k < n; k++ {
			a[k] = v[k] * w[k]
		}
		p.inner.transform(a, p.inner.fwd)
		for i := range a {
			a[i] *= bf[i]
		}
		p.inner.transform(a, p.inner.inv)
		invM := complex(1/float64(len(a)), 0)
		for k := 0; k < n; k++ {
			v[k] = a[k] * invM * w[k]
		}
	}
	if inverse {
		Scale(v, complex(1/float64(n), 0))
	}
}

// UpsamplePlan increases the sampling rate of signals of one fixed length
// by an integer factor by zero-padding their spectrum — the FFT
// interpolation Sect. IV step 1 of the paper uses to smooth the CIR before
// matched filtering. The output has factor times as many samples and
// preserves the amplitude of the underlying continuous signal. The plan
// holds the forward plan of the input length, the inverse plan of the
// output length, a spectrum scratch buffer, and the plan's unit-impulse
// response for AddSegment. It is not safe for concurrent use.
type UpsamplePlan struct {
	n, factor int
	spec      *dftPlan
	up        *dftPlan
	specBuf   []complex128
	// impulse holds h, the up-sampled image of a unit impulse at input
	// sample 0 (the periodic interpolation kernel), twice over:
	// impulse[i] = impulse[i+F·N] = h[i]. Every circular shift of h is
	// then one contiguous stretch, which AddSegment reads without a
	// wrap. h is real and even: the impulse's spectrum is all ones, and
	// the zero padding keeps it Hermitian, so only rounding noise is
	// dropped with the imaginary part.
	impulse []float64
	avx2    bool // run AddSegment on the AVX2 kernel (fft_amd64.s)
	execs   int64
}

// NewUpsamplePlan builds an upsampling plan for inputs of length n and the
// given integer factor ≥ 1.
func NewUpsamplePlan(n, factor int) (*UpsamplePlan, error) {
	if n < 0 {
		return nil, fmt.Errorf("dsp: negative upsample input length %d", n)
	}
	if factor < 1 {
		return nil, fmt.Errorf("dsp: upsample factor %d < 1", factor)
	}
	out := n * factor
	p := &UpsamplePlan{n: n, factor: factor, impulse: make([]float64, 2*out), avx2: haveAVX2}
	if n == 0 {
		return p, nil
	}
	if factor == 1 {
		p.impulse[0], p.impulse[out] = 1, 1
		return p, nil
	}
	var err error
	if p.spec, err = newDFTPlan(n); err != nil {
		return nil, err
	}
	if p.up, err = newDFTPlan(out); err != nil {
		return nil, err
	}
	p.specBuf = make([]complex128, n)
	// A unit impulse at sample 0 has an all-ones spectrum; interpolating
	// it directly skips the forward transform and its rounding.
	for i := range p.specBuf {
		p.specBuf[i] = 1
	}
	imp := make([]complex128, out)
	p.interpolate(imp, p.specBuf)
	for i, v := range imp {
		p.impulse[i] = real(v)
	}
	copy(p.impulse[out:], p.impulse[:out])
	return p, nil
}

// Execs returns the number of Execute calls since the plan was built —
// plan-level observability for the instrumentation layer. Like the plan
// itself the counter is single-goroutine.
func (p *UpsamplePlan) Execs() int64 { return p.execs }

// Execute upsamples v (of the planned input length) into dst (of the
// planned output length) and returns dst. v is not modified.
func (p *UpsamplePlan) Execute(dst, v []complex128) []complex128 {
	if len(v) != p.n || len(dst) != p.n*p.factor {
		panic(fmt.Sprintf("dsp: upsample plan (%d → %d) executed on %d → %d samples",
			p.n, p.n*p.factor, len(v), len(dst)))
	}
	p.execs++
	if p.factor == 1 || p.n == 0 {
		copy(dst, v)
		return dst
	}
	spec := p.specBuf
	copy(spec, v)
	p.spec.Execute(spec)
	p.interpolate(dst, spec)
	return dst
}

// interpolate zero-pads the input-rate spectrum spec into dst, the
// output-rate spectrum, and inverse-transforms it into the up-sampled
// signal.
func (p *UpsamplePlan) interpolate(dst, spec []complex128) {
	n := p.n
	clear(dst)
	if n%2 == 0 {
		half := n / 2
		copy(dst[:half], spec[:half])
		copy(dst[len(dst)-(half-1):], spec[half+1:])
		// Split the Nyquist bin between the two halves so a real input
		// stays real after interpolation.
		nyq := spec[half] / 2
		dst[half] = nyq
		dst[len(dst)-half] = nyq
	} else {
		pos := (n + 1) / 2 // bins 0..(n-1)/2 are non-negative frequencies
		copy(dst[:pos], spec[:pos])
		copy(dst[len(dst)-(n-pos):], spec[pos:])
	}
	p.up.ExecuteInverse(dst)
	Scale(dst, complex(float64(p.factor), 0))
}

// AddSegment adds the up-sampled image of a short input-rate segment into
// dst, a signal of the planned output length. seg[k] sits at input sample
// lo+k, and with F the factor, N the input length and h the plan's
// unit-impulse response the update is
//
//	dst[i] += Σ_k seg[k]·h[(i − F·(lo+k)) mod F·N]
//
// FFT interpolation is linear, and delaying its input by one sample
// circularly delays its output by F samples, so this adds Execute of the
// segment placed in an all-zero input, up to rounding. It costs
// len(seg)·F·N real multiply-adds and no transform: the detector keeps
// its up-sampled residual exact this way after each subtracted pulse.
//
// The sum runs output-major: each output is loaded once, adds its terms
// in ascending k, each as one multiply per component and one add, and is
// stored once. Those are the operations, in the order, of adding one
// term per pass over dst, so the result is bit-identical to that form.
// Zero samples are skipped: adding 0·h could turn a −0 output into +0.
// The nonzero samples between zeros form runs, each one pass; a rendered
// pulse is a single run. On CPUs with AVX2 each run goes through the
// kernel of fft_amd64.s, bit-identical to the Go loop (addRun).
//
// An empty segment is a no-op; otherwise it panics unless dst has the
// output length and the segment lies inside the input window.
func (p *UpsamplePlan) AddSegment(dst, seg []complex128, lo int) {
	out := p.n * p.factor
	if len(dst) != out {
		panic(fmt.Sprintf("dsp: upsample plan (%d → %d) updating %d samples", p.n, out, len(dst)))
	}
	if len(seg) == 0 {
		return
	}
	if lo < 0 || lo+len(seg) > p.n {
		panic(fmt.Sprintf("dsp: segment [%d, %d) outside the %d-sample input", lo, lo+len(seg), p.n))
	}
	for k := 0; k < len(seg); {
		if seg[k] == 0 {
			k++
			continue
		}
		end := k + 1
		for end < len(seg) && seg[end] != 0 {
			end++
		}
		// Term j of the run reads h[(i − F·(lo+k+j)) mod F·N] at output
		// i; with the run's last term at input sample a, that is
		// impulse[i + F·(a−lo−k−j)] of the table from F·N − F·a on.
		a := lo + end - 1
		h := p.impulse[out-p.factor*a:]
		if p.avx2 {
			addRunAVX2(dst, seg[k:end], h, p.factor)
		} else {
			addRun(dst, seg[k:end], h, p.factor)
		}
		k = end
	}
}

// addRun adds Σ_j run[j]·h[i + f·(len(run)−1−j)] to every output dst[i],
// j ascending, with h at least len(dst) + f·(len(run)−1) long. Four
// outputs share each pass over the run, so their eight component sums
// proceed independently.
func addRun(dst, run []complex128, h []float64, f int) {
	last := f * (len(run) - 1)
	h = h[:len(dst)+last]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		q := dst[i : i+4 : i+4]
		r0, i0 := real(q[0]), imag(q[0])
		r1, i1 := real(q[1]), imag(q[1])
		r2, i2 := real(q[2]), imag(q[2])
		r3, i3 := real(q[3]), imag(q[3])
		o := i + last
		for _, s := range run {
			hv := h[o : o+4 : o+4]
			re, im := real(s), imag(s)
			r0, i0 = r0+re*hv[0], i0+im*hv[0]
			r1, i1 = r1+re*hv[1], i1+im*hv[1]
			r2, i2 = r2+re*hv[2], i2+im*hv[2]
			r3, i3 = r3+re*hv[3], i3+im*hv[3]
			o -= f
		}
		q[0], q[1], q[2], q[3] = complex(r0, i0), complex(r1, i1), complex(r2, i2), complex(r3, i3)
	}
	for ; i < len(dst); i++ {
		r, m := real(dst[i]), imag(dst[i])
		o := i + last
		for _, s := range run {
			r, m = r+real(s)*h[o], m+imag(s)*h[o]
			o -= f
		}
		dst[i] = complex(r, m)
	}
}

// MatchedFilterBank precomputes the matched-filter spectra of a set of
// templates for signals of one fixed length, so that filtering a signal
// against every template costs one forward FFT per distinct convolution
// size (usually exactly one), T complex multiplies and T inverse FFTs —
// instead of 2T forward FFTs. The output for template s is the signal
// convolved with the matched filter MatchedFilterTaps(s) (Sect. IV step
// 2), aligned so that index i corresponds to a pulse starting at sample i
// of the signal: a template located at delay d peaks at output index d.
// The output has the signal's length.
//
// Transform/FilterInto share internal scratch buffers; those two methods
// are not safe for concurrent use. FilterPeak, however, takes caller-owned
// scratch (NewScratch) and touches only read-only plan state and atomic
// counters, so between two Transforms any number of goroutines may run
// FilterPeak concurrently — the fan-out the detector's parallel template
// search relies on.
type MatchedFilterBank struct {
	sigLen int
	tmpls  []bankTemplate
	sizes  []int          // distinct FFT convolution sizes
	plans  []*fftPlan     // parallel to sizes
	specs  [][]complex128 // parallel to sizes: spectrum of the current signal
	sig    []complex128   // copy of the current signal (direct-path convolution)
	full   []complex128   // scratch for the full convolution
	ready  bool

	transforms, filters atomic.Int64 // execution counters
}

// SkipInterval is one inclusive index range [Lo, Hi] a peak scan must
// ignore — the detector's suppression guard around already-extracted
// responses, precomputed once per round instead of re-checked per sample.
type SkipInterval struct {
	Lo, Hi int
}

type bankTemplate struct {
	taps []complex128 // conjugated time-reversed template
	spec []complex128 // FFT of zero-padded taps; nil on the direct path
	m    int          // convolution FFT size (0 on the direct path)
}

// NewMatchedFilterBank builds a bank for the given templates and signal
// length. Every template must be non-empty and sigLen positive.
func NewMatchedFilterBank(templates [][]complex128, sigLen int) (*MatchedFilterBank, error) {
	if sigLen < 1 {
		return nil, fmt.Errorf("dsp: matched-filter bank needs a positive signal length, got %d", sigLen)
	}
	if len(templates) == 0 {
		return nil, fmt.Errorf("dsp: matched-filter bank needs at least one template")
	}
	b := &MatchedFilterBank{
		sigLen: sigLen,
		tmpls:  make([]bankTemplate, len(templates)),
		sig:    make([]complex128, sigLen),
	}
	maxFull := 0
	for i, t := range templates {
		if len(t) == 0 {
			return nil, fmt.Errorf("dsp: empty template %d", i)
		}
		taps := MatchedFilterTaps(t)
		bt := bankTemplate{taps: taps}
		outLen := len(taps) + sigLen - 1
		maxFull = max(maxFull, outLen)
		if !convolveUseDirect(len(taps), sigLen) {
			maxFull = max(maxFull, NextPow2(outLen))
			bt.m = NextPow2(outLen)
			plan, err := b.planFor(bt.m)
			if err != nil {
				return nil, err
			}
			spec := make([]complex128, bt.m)
			copy(spec, taps)
			plan.transform(spec, plan.fwd)
			bt.spec = spec
		}
		b.tmpls[i] = bt
	}
	b.full = make([]complex128, maxFull)
	return b, nil
}

// planFor returns (building on demand) the shared plan for FFT size m,
// along with a signal-spectrum buffer of the same size. Callers always
// pass NextPow2 of the convolution length: padding a non-power-of-two
// length up to the next power of two costs at most a 2× longer radix-2
// transform, while an exact-length Bluestein dftPlan runs three
// power-of-two FFTs of length ≥ 2n−1 per transform — about 3× slower
// (measured by BenchmarkConvolvePaddedVsBluestein).
func (b *MatchedFilterBank) planFor(m int) (*fftPlan, error) {
	for i, s := range b.sizes {
		if s == m {
			return b.plans[i], nil
		}
	}
	p, err := newFFTPlan(m)
	if err != nil {
		return nil, err
	}
	b.sizes = append(b.sizes, m)
	b.plans = append(b.plans, p)
	b.specs = append(b.specs, make([]complex128, m))
	return p, nil
}

// NumTemplates returns the number of templates in the bank.
func (b *MatchedFilterBank) NumTemplates() int { return len(b.tmpls) }

// Transforms and Filters return how many signals were ingested and how
// many template filterings ran since the bank was built — plan-level
// observability for the instrumentation layer.
func (b *MatchedFilterBank) Transforms() int64 { return b.transforms.Load() }
func (b *MatchedFilterBank) Filters() int64    { return b.filters.Load() }

// Transform ingests a signal of the bank's length: it computes the
// signal's spectrum once per distinct convolution size. Subsequent
// FilterInto calls reuse those spectra until the next Transform.
func (b *MatchedFilterBank) Transform(sig []complex128) error {
	if len(sig) != b.sigLen {
		return fmt.Errorf("dsp: bank built for %d-sample signals, got %d", b.sigLen, len(sig))
	}
	copy(b.sig, sig)
	for i, p := range b.plans {
		spec := b.specs[i]
		clear(spec)
		copy(spec, sig)
		p.transform(spec, p.fwd)
	}
	b.ready = true
	b.transforms.Add(1)
	return nil
}

// FilterInto writes the matched-filter output of template t against the
// last Transform-ed signal into dst (length ≥ the bank's signal length)
// and returns dst truncated to that length.
func (b *MatchedFilterBank) FilterInto(dst []complex128, t int) ([]complex128, error) {
	if !b.ready {
		return nil, fmt.Errorf("dsp: FilterInto before Transform")
	}
	if t < 0 || t >= len(b.tmpls) {
		return nil, fmt.Errorf("dsp: template index %d outside bank of %d", t, len(b.tmpls))
	}
	if len(dst) < b.sigLen {
		return nil, fmt.Errorf("dsp: bank output needs %d samples, got %d", b.sigLen, len(dst))
	}
	dst = dst[:b.sigLen]
	b.filters.Add(1)
	bt := b.tmpls[t]
	start := len(bt.taps) - 1
	outLen := len(bt.taps) + b.sigLen - 1
	if bt.spec == nil {
		// Direct path for small operands (see convolveUseDirect).
		full := b.full[:outLen]
		clear(full)
		for i, av := range bt.taps {
			if av == 0 {
				continue
			}
			for j, bv := range b.sig {
				full[i+j] += av * bv
			}
		}
		copy(dst, full[start:])
		return dst, nil
	}
	var plan *fftPlan
	var sigSpec []complex128
	for i, s := range b.sizes {
		if s == bt.m {
			plan, sigSpec = b.plans[i], b.specs[i]
			break
		}
	}
	prod := b.full[:bt.m]
	plan.productTransform(prod, bt.spec, sigSpec, plan.inv)
	Scale(prod, complex(1/float64(bt.m), 0))
	copy(dst, prod[start:outLen])
	return dst, nil
}

// NewScratch returns a scratch buffer sized for FilterPeak (one full
// convolution of the longest template). Allocate one per goroutine:
// FilterPeak never touches bank-owned scratch.
func (b *MatchedFilterBank) NewScratch() []complex128 {
	return make([]complex128, len(b.full))
}

// Clone returns a new bank sharing b's immutable state — the conjugated
// template taps, their precomputed spectra, and the per-size FFT plans —
// while owning fresh mutable signal state (per-size signal spectra, the
// signal copy, the full-convolution scratch) and zeroed execution
// counters. The clone starts unready: Transform it before filtering.
//
// The shared plans are safe because an fftPlan holds no scratch: every
// bank method drives it through transform or productTransform, which only
// read the precomputed swap, reversal and twiddle tables. Any number of
// clones may therefore run concurrently, one goroutine each — the sharing that lets a batch engine pay the
// per-template spectrum setup once per CIR length instead of once per
// worker.
func (b *MatchedFilterBank) Clone() *MatchedFilterBank {
	c := &MatchedFilterBank{
		sigLen: b.sigLen,
		tmpls:  b.tmpls,
		sizes:  b.sizes,
		plans:  b.plans,
		specs:  make([][]complex128, len(b.specs)),
		sig:    make([]complex128, len(b.sig)),
		full:   make([]complex128, len(b.full)),
	}
	for i, s := range b.specs {
		c.specs[i] = make([]complex128, len(s))
	}
	return c
}

// FilterPeak matched-filters template t against the last Transform-ed
// signal and returns the strongest output sample outside the skip
// intervals: its output index (-1 when every sample is skipped or zero),
// its squared magnitude, and the three output samples centered on it
// (zero where the signal window ends). The magnitude scan is fused into
// the inverse-FFT output pass — each scaled sample is consumed as it is
// produced instead of being written out and re-read in a second O(n)
// sweep — and every consumed value is bit-identical to the corresponding
// FilterInto output sample (`prod[x] * invM` is the exact float operation
// Scale applies).
//
// skip must hold inclusive, ascending, disjoint output-index intervals.
// scratch must be at least NewScratch-sized. FilterPeak only reads bank
// state (plus one atomic counter), so between two Transforms any number
// of goroutines may call it concurrently, each with its own scratch.
func (b *MatchedFilterBank) FilterPeak(scratch []complex128, t int, skip []SkipInterval) (int, float64, [3]complex128, error) {
	var y3 [3]complex128
	if !b.ready {
		return -1, 0, y3, fmt.Errorf("dsp: FilterPeak before Transform")
	}
	if t < 0 || t >= len(b.tmpls) {
		return -1, 0, y3, fmt.Errorf("dsp: template index %d outside bank of %d", t, len(b.tmpls))
	}
	if len(scratch) < len(b.full) {
		return -1, 0, y3, fmt.Errorf("dsp: FilterPeak scratch needs %d samples, got %d", len(b.full), len(scratch))
	}
	b.filters.Add(1)
	bt := b.tmpls[t]
	start := len(bt.taps) - 1
	var out []complex128
	scale := complex(1, 0)
	if bt.spec == nil {
		// Direct path for small operands (see convolveUseDirect); the
		// outputs carry no FFT normalization, so scale stays 1.
		outLen := len(bt.taps) + b.sigLen - 1
		full := scratch[:outLen]
		clear(full)
		for i, av := range bt.taps {
			if av == 0 {
				continue
			}
			for j, bv := range b.sig {
				full[i+j] += av * bv
			}
		}
		out = full
	} else {
		var plan *fftPlan
		var sigSpec []complex128
		for i, s := range b.sizes {
			if s == bt.m {
				plan, sigSpec = b.plans[i], b.specs[i]
				break
			}
		}
		prod := scratch[:bt.m]
		plan.productTransform(prod, bt.spec, sigSpec, plan.inv)
		out = prod
		scale = complex(1/float64(bt.m), 0)
	}
	bestIdx, bestSq := -1, 0.0
	si := 0
	for i := 0; i < b.sigLen; i++ {
		for si < len(skip) && skip[si].Hi < i {
			si++
		}
		if si < len(skip) && skip[si].Lo <= i {
			i = skip[si].Hi // loop increment moves past the interval
			continue
		}
		v := out[start+i] * scale
		sq := real(v)*real(v) + imag(v)*imag(v)
		if sq > bestSq {
			bestIdx, bestSq = i, sq
		}
	}
	if bestIdx < 0 {
		return -1, 0, y3, nil
	}
	y3[1] = out[start+bestIdx] * scale
	if bestIdx > 0 {
		y3[0] = out[start+bestIdx-1] * scale
	}
	if bestIdx < b.sigLen-1 {
		y3[2] = out[start+bestIdx+1] * scale
	}
	return bestIdx, bestSq, y3, nil
}
