package dsp

import (
	"fmt"
	"math"
	"sync/atomic"
)

// SpectralBank runs the detector's per-round matched-filter search at the
// signal's circular transform length: Ingest takes one forward FFT of the
// up-sampled residual, and ScanBest evaluates every template's
// matched-filter output against it with a single inverse FFT per template
// and a fused peak scan.
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
// the DFT shift theorem to the maintained spectrum,
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
// detector does not use it; it keeps its up-sampled residual exact with
// UpsamplePlan.AddSegment and ingests it every round.
//
// Ingest and ShiftSubtract mutate shared state; ScanBest only reads it
// (plus atomic counters) and takes caller-owned scratch, so between
// mutations any number of goroutines may scan concurrently.
type SpectralBank struct {
	sigLen  int
	m       int
	plan    *fftPlan
	spec    []complex128 // maintained spectrum of the current signal
	specRev []complex128 // spec in bit-reversed order, kept in step
	prefix  []complex128 // maintained signal[0:maxTail] for tail correction
	maxTail int
	tmpls   []spectralTemplate

	ingests, scans atomic.Int64
}

type spectralTemplate struct {
	taps    []complex128 // conjugated time-reversed template
	spec    []complex128 // FFT_M of zero-padded taps
	specRev []complex128 // spec in bit-reversed order for the scan hot loop
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
		spec:    make([]complex128, m),
		specRev: make([]complex128, m),
		tmpls:   make([]spectralTemplate, len(templates)),
	}
	for i, t := range templates {
		taps := MatchedFilterTaps(t)
		spec := make([]complex128, m)
		copy(spec, taps)
		plan.transform(spec, plan.fwd)
		specRev := make([]complex128, m)
		plan.permuteInto(specRev, spec)
		tail := sigLen + len(taps) - 1 - m
		if tail < 0 {
			tail = 0
		}
		b.maxTail = max(b.maxTail, tail)
		b.tmpls[i] = spectralTemplate{
			taps:    taps,
			spec:    spec,
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

// Ingests and Scans return how many signals were ingested and how many
// template scans ran since the bank was built — plan-level observability.
func (b *SpectralBank) Ingests() int64 { return b.ingests.Load() }
func (b *SpectralBank) Scans() int64   { return b.scans.Load() }

// NewScratch returns a scratch buffer sized for ScanBest. Allocate one per
// goroutine; ScanBest never touches bank-owned scratch.
func (b *SpectralBank) NewScratch() []complex128 {
	return make([]complex128, b.m+b.maxTail)
}

// Clone returns a new bank sharing b's immutable state — the template
// taps and spectra plus the single FFT plan — while owning fresh mutable
// signal state (the maintained spectrum and tail-correction prefix) and
// zeroed execution counters. The clone holds no signal: Ingest before
// scanning. The shared plan is read-only under every bank method (only
// its swap and twiddle tables are consulted), so clones may run
// concurrently, one goroutine each, while the O(templates) spectrum
// setup is paid once and shared.
func (b *SpectralBank) Clone() *SpectralBank {
	return &SpectralBank{
		sigLen:  b.sigLen,
		m:       b.m,
		plan:    b.plan,
		spec:    make([]complex128, b.m),
		specRev: make([]complex128, b.m),
		prefix:  make([]complex128, b.maxTail),
		maxTail: b.maxTail,
		tmpls:   b.tmpls,
	}
}

// Ingest replaces the maintained state with a fresh signal: one forward
// FFT plus a copy of the tail-correction prefix. The detector calls it
// once per extraction round, on its exactly maintained up-sampled
// residual.
func (b *SpectralBank) Ingest(sig []complex128) error {
	if len(sig) != b.sigLen {
		return fmt.Errorf("dsp: spectral bank built for %d-sample signals, got %d", b.sigLen, len(sig))
	}
	clear(b.spec)
	copy(b.spec, sig)
	b.plan.transform(b.spec, b.plan.fwd)
	b.plan.permuteInto(b.specRev, b.spec)
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
	spec := b.spec
	for f := range spec {
		a := st.spec[f]
		df := amp * complex(real(a), -imag(a)) * w
		switch {
		case f > half:
			df *= corr
		case f == half:
			df *= (1 + corr) / 2
		}
		spec[f] -= df
		w *= wBase
	}
	b.plan.permuteInto(b.specRev, spec)
	if eval != nil {
		for x := range b.prefix {
			b.prefix[x] -= eval(x)
		}
	}
	return nil
}

// ScanBest matched-filters template t against the maintained spectrum and
// returns the strongest output sample outside the skip intervals: its
// output index (-1 when every sample is skipped or zero), its squared
// magnitude, and the three output samples centered on it (zero where the
// signal window ends). Output indexing matches MatchedFilterBank: index i
// is the matched-filter output at signal sample i.
//
// One inverse FFT of length M computes the circular convolution; the
// samples the wrap-around corrupts (the last tail_t outputs) are repaired
// with the overlap-save identity full[M+j] = circ[j] − full[j], where the
// linear-convolution prefix full[j] (j < tail_t ≤ L_t−1) is recomputed
// directly from the maintained signal prefix. skip must hold inclusive,
// ascending, disjoint output-index intervals; scratch must be at least
// NewScratch-sized.
func (b *SpectralBank) ScanBest(scratch []complex128, t int, skip []SkipInterval) (int, float64, [3]complex128, error) {
	var y3 [3]complex128
	if t < 0 || t >= len(b.tmpls) {
		return -1, 0, y3, fmt.Errorf("dsp: template index %d outside bank of %d", t, len(b.tmpls))
	}
	if len(scratch) < b.m+b.maxTail {
		return -1, 0, y3, fmt.Errorf("dsp: ScanBest scratch needs %d samples, got %d", b.m+b.maxTail, len(scratch))
	}
	b.scans.Add(1)
	st := b.tmpls[t]
	prod := scratch[:b.m]
	b.plan.productTransformPermuted(prod, st.specRev, b.specRev, b.plan.inv)
	scale := complex(1/float64(b.m), 0)
	// Linear-convolution prefix for the wrapped tail: full[j] for
	// j < tail only involves taps[0..j] and signal[0..j], both ≤ prefix.
	fp := scratch[b.m : b.m+st.tail]
	for j := range fp {
		var s complex128
		for k := 0; k <= j && k < len(st.taps); k++ {
			s += st.taps[k] * b.prefix[j-k]
		}
		fp[j] = s
	}
	start := len(st.taps) - 1
	wrapFrom := b.m - start // first output index whose sample wrapped
	bestIdx, bestSq := -1, 0.0
	// Visit the gaps between skip intervals in ascending index order —
	// the same samples, in the same order, as a per-sample skip test —
	// with each gap split at wrapFrom so the unwrapped stretch runs
	// without the tail-correction branch. sampleAt stays the per-sample
	// reference (the y3 reads below use it); the unwrapped loop scales
	// the components directly (scale is real), which can only flip the
	// sign of a zero component — squaring erases that, so the compared
	// sq is bit-identical to sampleAt's.
	s := real(scale)
	scanGap := func(from, to int) {
		if from < 0 {
			from = 0
		}
		if to > b.sigLen {
			to = b.sigLen
		}
		for i := from; i < to && i < wrapFrom; i++ {
			p := prod[start+i]
			re, im := real(p)*s, imag(p)*s
			sq := re*re + im*im
			if sq > bestSq {
				bestIdx, bestSq = i, sq
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
	}
	next := 0
	for _, iv := range skip {
		scanGap(next, iv.Lo)
		if iv.Hi+1 > next {
			next = iv.Hi + 1
		}
	}
	scanGap(next, b.sigLen)
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
