package dsp

import (
	"fmt"
	"math"
	"sync/atomic"
)

// SpectralBank filters a signal with every template at the signal's
// circular transform length: Ingest takes one forward FFT of the
// up-sampled signal, and ScanBest evaluates a template's matched-filter
// output against it with a single inverse FFT and a fused peak scan. The
// detector ingests the up-sampled CIR once per Detect on banks that keep
// every template's output (TrackedOutputs.Load filters it); every other
// bank searches in short frames instead (FrameBank, frames.go).
//
// The circular transform length M = NextPow2(max(sigLen, longest
// template)) is smaller than the MatchedFilterBank's linear convolution
// length NextPow2(sigLen+L_t−1) — 4096 instead of 8192 for the
// 4×-up-sampled 1016-tap CIR — and the wrapped convolution tail is
// corrected exactly from a maintained prefix of the time-domain signal
// (see ScanBest, overlap-save identity). Up to rounding, ScanBest
// therefore returns exactly what MatchedFilterBank.FilterPeak returns for
// the same signal.
//
// ShiftSubtract is an analytic alternative to re-ingesting: it applies
// the DFT shift theorem to the signal's spectrum,
//
//	R'(f) = R(f) − α̂ · e^{−j2πfτ̂/M} · S_t(f)
//
// where S_t(f) is the template's spectrum — recovered from the bank's
// conjugated matched-filter taps spectrum A_t(f) via
// S_t(f) = conj(A_t(f))·ω^{f(L_t−1)}, ω = e^{−j2π/M} — and τ̂ is the
// fractional peak position on the up-sampled grid. It subtracts the
// up-sampled continuous pulse, not the T_s-rendered pulse pushed through
// FFT interpolation, so the spectrum it leaves only approximates the
// residual's: a 900 MHz pulse sampled at 1.0016 ns aliases slightly. The
// detector does not use it.
//
// The bank keeps every spectrum in bit-reversed order only, the order
// the scan's product pass reads: Ingest's last butterfly pass stores it
// that way, and ShiftSubtract updates it in place.
//
// Ingest and ShiftSubtract mutate shared state; ScanBest only reads it
// and takes caller-owned scratch, so between mutations any number of
// goroutines may scan concurrently.
type SpectralBank struct {
	sigLen  int
	m       int
	plan    *fftPlan
	specRev []complex128 // spectrum of the current signal, bit-reversed order
	prefix  []complex128 // maintained signal[0:maxTail] for tail correction
	maxTail int
	tmpls   []spectralTemplate

	ingests atomic.Int64
}

type spectralTemplate struct {
	taps    []complex128 // conjugated time-reversed template
	specRev []complex128 // FFT_M of zero-padded taps, bit-reversed order
	tail    int          // wrapped convolution samples: sigLen+len(taps)-1-m, ≥ 0
	center  int          // (len(template)-1)/2
}

// NewSpectralBank builds the frequency-domain search state for the given
// templates and up-sampled signal length. Every template must be non-empty;
// a template may be longer than the signal.
func NewSpectralBank(templates [][]complex128, sigLen int) (*SpectralBank, error) {
	if sigLen < 1 {
		return nil, fmt.Errorf("dsp: spectral bank needs a positive signal length, got %d", sigLen)
	}
	if len(templates) == 0 {
		return nil, fmt.Errorf("dsp: spectral bank needs at least one template")
	}
	longest := 0
	for i, t := range templates {
		if len(t) == 0 {
			return nil, fmt.Errorf("dsp: empty template %d", i)
		}
		longest = max(longest, len(t))
	}
	// M ≥ sigLen keeps every unwrapped output clean, and M ≥ L_t keeps
	// the wrapped tail sigLen+L_t−1−M shorter than both the signal and
	// the template, so the tail correction reads only maintained prefix
	// samples and existing taps.
	m := NextPow2(max(sigLen, longest))
	plan, err := newFFTPlan(m)
	if err != nil {
		return nil, err
	}
	b := &SpectralBank{
		sigLen:  sigLen,
		m:       m,
		plan:    plan,
		specRev: make([]complex128, m),
		tmpls:   make([]spectralTemplate, len(templates)),
	}
	for i, t := range templates {
		taps := MatchedFilterTaps(t)
		specRev := make([]complex128, m)
		copy(specRev, taps)
		plan.transform(specRev, plan.fwd)
		reverse(specRev, plan.swaps)
		tail := sigLen + len(taps) - 1 - m
		if tail < 0 {
			tail = 0
		}
		b.maxTail = max(b.maxTail, tail)
		b.tmpls[i] = spectralTemplate{
			taps:    taps,
			specRev: specRev,
			tail:    tail,
			center:  (len(t) - 1) / 2,
		}
	}
	b.prefix = make([]complex128, b.maxTail)
	return b, nil
}

// NumTemplates returns the number of templates in the bank.
func (b *SpectralBank) NumTemplates() int { return len(b.tmpls) }

// PrefixLen returns how many leading time-domain signal samples the bank
// maintains for overlap-save tail correction; ShiftSubtract's eval
// callback is queried over exactly this range.
func (b *SpectralBank) PrefixLen() int { return b.maxTail }

// Ingests returns how many signals were ingested since the bank was built
// — plan-level observability.
func (b *SpectralBank) Ingests() int64 { return b.ingests.Load() }

// NewScratch returns a scratch buffer sized for ScanBest. Allocate one per
// goroutine; ScanBest never touches bank-owned scratch.
func (b *SpectralBank) NewScratch() []complex128 {
	return make([]complex128, b.scratchLen())
}

// scratchLen is ScanBest's scratch length: the transform output, the
// tail correction and, where the plan records them, the peak blocks.
func (b *SpectralBank) scratchLen() int {
	n := b.m + b.maxTail
	if b.plan.peakEpilogue() {
		n += b.m / peakBlock
	}
	return n
}

// Clone returns a new bank sharing b's immutable state — the template
// taps and spectra plus the single FFT plan — while owning fresh mutable
// signal state (the spectrum and the tail-correction prefix) and a
// zeroed ingest counter. The clone holds no signal: Ingest before scanning. The shared plan is read-only under
// every bank method (only its tables are consulted), so clones may run
// concurrently, one goroutine each, while the O(templates) spectrum
// setup is paid once and shared.
func (b *SpectralBank) Clone() *SpectralBank {
	return &SpectralBank{
		sigLen:  b.sigLen,
		m:       b.m,
		plan:    b.plan,
		specRev: make([]complex128, b.m),
		prefix:  make([]complex128, b.maxTail),
		maxTail: b.maxTail,
		tmpls:   b.tmpls,
	}
}

// Ingest replaces the maintained state with a fresh signal: one forward
// FFT in place of the old spectrum, stored bit-reversed
// (fftPlan.spectrumRev), plus a copy of the tail-correction prefix. The
// detector calls it once per Detect, on the up-sampled CIR, on banks that
// keep their outputs.
func (b *SpectralBank) Ingest(sig []complex128) error {
	if len(sig) != b.sigLen {
		return fmt.Errorf("dsp: spectral bank built for %d-sample signals, got %d", b.sigLen, len(sig))
	}
	b.plan.spectrumRev(b.specRev, sig)
	copy(b.prefix, sig[:b.maxTail])
	b.ingests.Add(1)
	return nil
}

// ShiftSubtract updates the maintained spectrum for the subtraction of
// amp·s_t(x − finePos) (template t's continuous pulse centered at the
// fractional signal index finePos) via the DFT shift theorem, with no
// transform; see the type comment for why the result is approximate. eval
// must return the sample of the subtracted pulse at signal index x — the
// bank cannot evaluate the continuous pulse itself — and is queried only
// over [0, PrefixLen()) to keep the tail-correction prefix in step; eval
// may be nil when the pulse provably vanishes there.
func (b *SpectralBank) ShiftSubtract(t int, amp complex128, finePos float64, eval func(x int) complex128) error {
	if t < 0 || t >= len(b.tmpls) {
		return fmt.Errorf("dsp: template index %d outside bank of %d", t, len(b.tmpls))
	}
	st := b.tmpls[t]
	// S_t(f)·e^{−j2πf·shift/M} = conj(A_t(f))·ω^{f·u} with
	// u = shift + L_t − 1 and shift = finePos − center: the template's
	// first tap sits at signal index finePos − center.
	u := finePos - float64(st.center) + float64(len(st.taps)-1)
	step := -2 * math.Pi * u / float64(b.m)
	wBase := complex(math.Cos(step), math.Sin(step))
	w := complex(1, 0)
	// A fractional shift must phase-rotate by the *signed* frequency: bin
	// f > M/2 represents frequency f−M, whose factor e^{−j2π(f−M)u/M}
	// differs from the unsigned ω^{fu} by e^{+j2πu} — exactly 1 for
	// integer shifts, anything at all for fractional ones. The Nyquist
	// bin is split between both branches, matching the upsampler's
	// real-preserving convention.
	theta := 2 * math.Pi * u
	corr := complex(math.Cos(theta), math.Sin(theta))
	half := b.m / 2
	// Bin f of a spectrum sits at rev[f] of its bit-reversed store.
	for f, r := range b.plan.rev {
		a := st.specRev[r]
		df := amp * complex(real(a), -imag(a)) * w
		switch {
		case f > half:
			df *= corr
		case f == half:
			df *= (1 + corr) / 2
		}
		b.specRev[r] -= df
		w *= wBase
	}
	if eval != nil {
		for x := range b.prefix {
			b.prefix[x] -= eval(x)
		}
	}
	return nil
}

// ScanBest matched-filters template t against the maintained spectrum and
// returns the strongest output sample outside the skip intervals. No
// detector path calls it: its callers are perfbench's fullbank replay and
// the tests, and it goes with the benchmark's next change (ROADMAP item
// 1). It returns its
// output index (-1 when every sample is skipped or zero), its squared
// magnitude, and the three output samples centered on it (zero where the
// signal window ends). Output indexing matches MatchedFilterBank: index i
// is the matched-filter output at signal sample i.
//
// One inverse FFT of length M computes the circular convolution; the
// samples the wrap-around corrupts (the last tail_t outputs) are repaired
// with the overlap-save identity full[M+j] = circ[j] − full[j], where the
// linear-convolution prefix full[j] (j < tail_t ≤ L_t−1) is recomputed
// directly from the maintained signal prefix (tailRepair). skip must hold
// inclusive, ascending, disjoint output-index intervals; scratch must be
// at least NewScratch-sized.
func (b *SpectralBank) ScanBest(scratch []complex128, t int, skip []SkipInterval) (int, float64, [3]complex128, error) {
	var y3 [3]complex128
	if t < 0 || t >= len(b.tmpls) {
		return -1, 0, y3, fmt.Errorf("dsp: template index %d outside bank of %d", t, len(b.tmpls))
	}
	if n := b.scratchLen(); len(scratch) < n {
		return -1, 0, y3, fmt.Errorf("dsp: ScanBest scratch needs %d samples, got %d", n, len(scratch))
	}
	st := b.tmpls[t]
	prod := scratch[:b.m]
	scale := complex(1/float64(b.m), 0)
	s := real(scale)
	// On plans whose last pass is a stage pair, that pass records the
	// peak of every 16-output block (productTransformPeaks), so the scan
	// below reads one record per block a gap covers whole (blockScan).
	var peaks []complex128
	if b.plan.peakEpilogue() {
		peaks = scratch[b.m+b.maxTail : b.m+b.maxTail+b.m/peakBlock]
		b.plan.productTransformPeaks(prod, st.specRev, b.specRev, b.plan.inv, s, peaks)
	} else {
		b.plan.productTransformPermuted(prod, st.specRev, b.specRev, b.plan.inv)
	}
	// Linear-convolution prefix for the wrapped tail: full[j] for
	// j < tail only involves taps[0..j] and signal[0..j], both ≤ prefix.
	fp := scratch[b.m : b.m+st.tail]
	repairTail(fp, st.taps, b.prefix, b.plan.avx2)
	start := len(st.taps) - 1
	wrapFrom := b.m - start // first output index whose sample wrapped
	bestIdx, bestSq := -1, 0.0
	// Visit the gaps between skip intervals in ascending index order —
	// the same samples, in the same order, as a per-sample skip test —
	// with each gap split at wrapFrom so the unwrapped stretch runs
	// without the tail-correction branch, through blockScan. sampleAt
	// stays the per-sample reference (the y3 reads below use it); the
	// unwrapped scan scales the components directly (scale is real),
	// which can only flip the sign of a zero component — squaring erases
	// that, so the compared sq is bit-identical to sampleAt's.
	scan := peakScan
	if b.plan.avx2 {
		scan = peakScanAVX2
	}
	eachGap(skip, b.sigLen, func(from, to int) {
		if hi := min(to, wrapFrom); from < hi {
			if i, sq := blockScan(prod, peaks, start+from, start+hi, s, bestSq, scan); i >= 0 {
				bestIdx, bestSq = i-start, sq
			}
		}
		for i := max(from, wrapFrom); i < to; i++ {
			j := start + i - b.m
			v := prod[j]*scale - fp[j]
			sq := real(v)*real(v) + imag(v)*imag(v)
			if sq > bestSq {
				bestIdx, bestSq = i, sq
			}
		}
	})
	if bestIdx < 0 {
		return -1, 0, y3, nil
	}
	y3[1] = b.sampleAt(prod, fp, scale, start, wrapFrom, bestIdx)
	if bestIdx > 0 {
		y3[0] = b.sampleAt(prod, fp, scale, start, wrapFrom, bestIdx-1)
	}
	if bestIdx < b.sigLen-1 {
		y3[2] = b.sampleAt(prod, fp, scale, start, wrapFrom, bestIdx+1)
	}
	return bestIdx, bestSq, y3, nil
}

// eachGap calls fn(from, to) for every non-empty stretch [from, to) of
// outputs 0 … n−1 between the skip intervals, in ascending order — the
// outputs, in the order, of a per-output skip test. skip must hold
// inclusive, ascending, disjoint intervals.
func eachGap(skip []SkipInterval, n int, fn func(from, to int)) {
	gap := func(from, to int) {
		if from, to = max(from, 0), min(to, n); from < to {
			fn(from, to)
		}
	}
	next := 0
	for _, iv := range skip {
		gap(next, iv.Lo)
		if iv.Hi+1 > next {
			next = iv.Hi + 1
		}
	}
	gap(next, n)
}

// filterInto writes template t's matched-filter outputs 0 … len(dst)−1
// (at most the signal length) against the ingested signal into dst:
// ScanBest's inverse transform and overlap-save repair, with every output
// kept. Each output is scaled component by component, as ScanBest's scan
// scales the outputs it compares.
func (b *SpectralBank) filterInto(dst, scratch []complex128, t int) {
	st := b.tmpls[t]
	prod := scratch[:b.m]
	b.plan.productTransformPermuted(prod, st.specRev, b.specRev, b.plan.inv)
	fp := scratch[b.m : b.m+st.tail]
	repairTail(fp, st.taps, b.prefix, b.plan.avx2)
	s := 1 / float64(b.m)
	start := len(st.taps) - 1
	wrapFrom := min(b.m-start, len(dst))
	for i, p := range prod[start : start+wrapFrom] {
		dst[i] = complex(real(p)*s, imag(p)*s)
	}
	for i := wrapFrom; i < len(dst); i++ {
		p, f := prod[start+i-b.m], fp[start+i-b.m]
		dst[i] = complex(real(p)*s-real(f), imag(p)*s-imag(f))
	}
}

// repairTail runs tailRepair, on its AVX2 twin when avx2 is set.
func repairTail(fp, taps, prefix []complex128, avx2 bool) {
	if avx2 {
		tailRepairAVX2(fp, taps, prefix)
	} else {
		tailRepair(fp, taps, prefix)
	}
}

// tailRepair computes the overlap-save correction of ScanBest's wrapped
// outputs, fp[j] = Σ_{k≤j} taps[k]·prefix[j−k], each output's terms
// added in ascending k to a zero start. len(fp) must not exceed
// len(taps) or len(prefix).
func tailRepair(fp, taps, prefix []complex128) {
	for j := range fp {
		var s complex128
		for k, t := range taps[:j+1] {
			s += t * prefix[j-k]
		}
		fp[j] = s
	}
}

// blockScan returns what scan(v[lo:hi], s, best) returns — the first
// index of the largest (re·s)² + (im·s)² in the stretch, offset by lo,
// and that value, if it exceeds best, else −1 and best — reading peaks,
// productTransformPeaks' records of v (nil: scan the stretch). A block's
// record bounds all of its samples, so a block whose record does not
// exceed the best so far is passed over. A block wholly inside the
// stretch whose record does becomes the best, its index pending; a block
// the stretch cuts is scanned over its part. Blocks are taken in
// ascending order under the same strict > as the scan, so the first
// block holding the largest value wins, and only that block is scanned
// for the first index of its maximum.
func blockScan(v, peaks []complex128, lo, hi int, s, best float64, scan func([]complex128, float64, float64) (int, float64)) (int, float64) {
	if peaks == nil {
		i, sq := scan(v[lo:hi], s, best)
		if i >= 0 {
			i += lo
		}
		return i, sq
	}
	idx, win := -1, -1
	for k := lo / peakBlock; k*peakBlock < hi; k++ {
		if real(peaks[k]) <= best {
			continue
		}
		a, z := k*peakBlock, (k+1)*peakBlock
		if lo <= a && z <= hi {
			win, best = k, real(peaks[k])
			continue
		}
		a, z = max(a, lo), min(z, hi)
		if i, sq := scan(v[a:z], s, best); i >= 0 {
			idx, best, win = a+i, sq, -1
		}
	}
	if win >= 0 {
		// The record exceeds the best before it, hence 0, so the scan
		// from 0 stops at the first sample holding it.
		i, _ := scan(v[win*peakBlock:(win+1)*peakBlock], s, 0)
		idx = win*peakBlock + i
	}
	return idx, best
}

// peakScan returns the first index of the largest (re·s)² + (im·s)² over
// the samples re + i·im of v, and that value, if it exceeds best;
// otherwise it returns −1 and best. NaN never wins.
func peakScan(v []complex128, s, best float64) (int, float64) {
	idx := -1
	for i, p := range v {
		re, im := real(p)*s, imag(p)*s
		sq := re*re + im*im
		if sq > best {
			idx, best = i, sq
		}
	}
	return idx, best
}

// sampleAt returns matched-filter output i from the raw circular
// convolution, applying the overlap-save tail correction where the linear
// index start+i exceeds the transform length.
func (b *SpectralBank) sampleAt(prod, fp []complex128, scale complex128, start, wrapFrom, i int) complex128 {
	if i < wrapFrom {
		return prod[start+i] * scale
	}
	j := start + i - b.m
	return prod[j]*scale - fp[j]
}
