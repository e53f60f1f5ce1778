package dsp

import "fmt"

// OutputKernels holds, for every template t of a SpectralBank, the table
// TrackedOutputs updates that template's matched-filter output from: g_t,
// the output's response to the up-sampler's unit impulse h = U(δ₀),
//
//	g_t[i] = Σ_k c_t[k]·h[(i + L_t − 1 − k) mod N],
//
// with c_t the template's L_t conjugated time-reversed taps and N the
// up-sampled signal length. The matched filter is linear and
// UpsamplePlan.AddSegment adds Σ_k seg[k]·h[(i − F·(lo+k)) mod N], so the
// filter's circular output changes by Σ_k seg[k]·g_t[(i − F·(lo+k)) mod N]:
// AddSegment's update with g_t's table in place of h. The filter's output
// is a linear convolution, so its last L_t − 1 outputs also lose the terms
// of the circular one that wrapped around (TrackedOutputs.AddSegment).
//
// g_t is the bank's filter output for h (one inverse transform with the
// overlap-save repair) plus the wrapped term tailRepair(c_t, h[:L_t−1]) on
// its last L_t − 1 outputs. Templates are real, so g_t is real up to
// transform rounding; like h it keeps its real part only, stored twice
// over so every circular shift is one contiguous stretch.
//
// The kernels are read-only once built, so any number of TrackedOutputs,
// on any goroutines, may share one.
type OutputKernels struct {
	n, factor int
	impulse   []float64      // the up-sampler's h, twice over (UpsamplePlan.impulse)
	g         [][]float64    // g[t]: template t's table, twice over
	taps      [][]complex128 // c_t, the bank's matched-filter taps
	maxWrap   int            // the longest template's wrapped outputs, L_max − 1
	avx2      bool           // update and scan on the AVX2 kernels (fft_amd64.s)
}

// Trackable reports whether NewOutputKernels accepts the bank: every
// template is real, and every template wraps around the circular signal
// at most once (L_t − 1 ≤ N), so each wrapped term is one tail repair.
func (b *SpectralBank) Trackable() bool {
	for _, st := range b.tmpls {
		if len(st.taps)-1 > b.sigLen {
			return false
		}
		for _, c := range st.taps {
			if imag(c) != 0 {
				return false
			}
		}
	}
	return true
}

// NewOutputKernels builds the kernels of the bank's templates for signals
// up-sampled by up, whose output length must be the bank's signal length.
// It borrows sig (the signal length) and scratch (NewScratch-sized) as
// work space and the bank's spectrum buffer, whose signal it replaces:
// Ingest before scanning the bank again. The bank's execution counters do
// not count the build.
func NewOutputKernels(b *SpectralBank, up *UpsamplePlan, sig, scratch []complex128) (*OutputKernels, error) {
	n := b.sigLen
	if up.n*up.factor != n {
		return nil, fmt.Errorf("dsp: output kernels for %d-sample signals from a %d → %d up-sampler", n, up.n, up.n*up.factor)
	}
	if len(sig) != n || len(scratch) < b.scratchLen() {
		return nil, fmt.Errorf("dsp: output kernels need %d signal and %d scratch samples, got %d and %d",
			n, b.scratchLen(), len(sig), len(scratch))
	}
	if !b.Trackable() {
		return nil, fmt.Errorf("dsp: output kernels need real templates of at most %d taps", n+1)
	}
	k := &OutputKernels{
		n:       n,
		factor:  up.factor,
		impulse: up.impulse,
		g:       make([][]float64, len(b.tmpls)),
		taps:    make([][]complex128, len(b.tmpls)),
		avx2:    b.plan.avx2,
	}
	for i := range sig {
		sig[i] = complex(up.impulse[i], 0)
	}
	b.plan.spectrumRev(b.specRev, sig)
	copy(b.prefix, sig[:b.maxTail])
	tables := make([]float64, 2*n*len(b.tmpls))
	for t, st := range b.tmpls {
		g := tables[2*n*t : 2*n*(t+1)]
		b.filterInto(sig, scratch, t)
		for i, v := range sig {
			g[i] = real(v)
		}
		// The wrapped term, from h's first L_t − 1 samples; scratch holds
		// them and the repair (2(L_t − 1) ≤ N + L_t − 1 ≤ its length).
		w := len(st.taps) - 1
		hp, fp := scratch[:w], scratch[w:2*w]
		for i := range hp {
			hp[i] = complex(up.impulse[i], 0)
		}
		repairTail(fp, st.taps, hp, k.avx2)
		for j, v := range fp {
			g[n-w+j] += real(v)
		}
		copy(g[n:], g[:n])
		k.g[t], k.taps[t] = g, st.taps
		k.maxWrap = max(k.maxWrap, w)
	}
	return k, nil
}

// NewOutputs returns output state on the kernels, holding no signal:
// Load before scanning.
func (k *OutputKernels) NewOutputs() *TrackedOutputs {
	out := make([][]complex128, len(k.g))
	buf := make([]complex128, k.n*len(k.g))
	for t := range out {
		out[t] = buf[k.n*t : k.n*(t+1)]
	}
	return &TrackedOutputs{
		k:    k,
		out:  out,
		pre:  make([]complex128, k.maxWrap),
		wrap: make([]complex128, k.maxWrap),
	}
}

// TrackedOutputs keeps every template's full matched-filter output against
// a signal that changes only by added up-sampled segments, the
// detector's residual between two subtracted pulses: Load filters a
// freshly ingested signal once, AddSegment updates every output for a
// segment added to it with no transform (OutputKernels), and ScanBest
// reads the maintained outputs. The outputs equal a fresh Ingest and
// filter of the updated signal up to rounding, not bit for bit: the
// update adds the segment's terms in a different order than the
// transform.
//
// TrackedOutputs is not safe for concurrent use; give each goroutine its
// own (OutputKernels.NewOutputs).
type TrackedOutputs struct {
	k     *OutputKernels
	out   [][]complex128 // out[t][i]: template t's output at signal sample i
	pre   []complex128   // U(seg) over the first maxWrap samples
	wrap  []complex128   // one template's wrapped terms
	scans int64
}

// Scans returns how many template scans ran since the outputs were built.
func (o *TrackedOutputs) Scans() int64 { return o.scans }

// Load replaces the outputs with every template's matched-filter output
// against the signal b last ingested: one inverse transform per template
// with the overlap-save repair (ScanBest's), every output kept. b must be
// the bank the kernels were built on, or a clone of it, and scratch
// NewScratch-sized.
func (o *TrackedOutputs) Load(b *SpectralBank, scratch []complex128) error {
	if b.sigLen != o.k.n || len(b.tmpls) != len(o.out) {
		return fmt.Errorf("dsp: outputs of %d templates on %d samples loaded from a bank of %d on %d",
			len(o.out), o.k.n, len(b.tmpls), b.sigLen)
	}
	if n := b.scratchLen(); len(scratch) < n {
		return fmt.Errorf("dsp: Load scratch needs %d samples, got %d", n, len(scratch))
	}
	for t, y := range o.out {
		b.filterInto(y, scratch, t)
	}
	return nil
}

// AddSegment updates every output for the addition of the up-sampled
// image of seg, placed at input sample lo, to the signal — what
// UpsamplePlan.AddSegment adds to it. Each template's outputs take the
// circular update from its table, and its last L_t − 1 outputs then lose
// the wrapped terms Σ_{k≤j} c_t[k]·U(seg)[j−k], a tail repair of U(seg)'s
// first samples. An empty segment is a no-op; otherwise it panics unless
// the segment lies inside the input window.
func (o *TrackedOutputs) AddSegment(seg []complex128, lo int) {
	k := o.k
	if len(seg) == 0 {
		return
	}
	if in := k.n / k.factor; lo < 0 || lo+len(seg) > in {
		panic(fmt.Sprintf("dsp: segment [%d, %d) outside the %d-sample input", lo, lo+len(seg), in))
	}
	clear(o.pre)
	addSegment(o.pre, seg, lo, k.impulse, k.factor, k.avx2)
	for t, y := range o.out {
		addSegment(y, seg, lo, k.g[t], k.factor, k.avx2)
		taps := k.taps[t]
		w := o.wrap[:len(taps)-1]
		repairTail(w, taps, o.pre, k.avx2)
		tail := y[k.n-len(w):]
		for j, v := range w {
			tail[j] -= v
		}
	}
}

// ScanBest returns template t's strongest maintained output outside the
// skip intervals, as SpectralBank.ScanBest does for an ingested signal:
// its index (-1 when every output is skipped or zero), its squared
// magnitude, and the three outputs centered on it (zero where the signal
// window ends). skip must hold inclusive, ascending, disjoint
// output-index intervals.
func (o *TrackedOutputs) ScanBest(t int, skip []SkipInterval) (int, float64, [3]complex128, error) {
	var y3 [3]complex128
	if t < 0 || t >= len(o.out) {
		return -1, 0, y3, fmt.Errorf("dsp: template index %d outside bank of %d", t, len(o.out))
	}
	o.scans++
	y := o.out[t]
	scan := peakScan
	if o.k.avx2 {
		scan = peakScanAVX2
	}
	bestIdx, bestSq := -1, 0.0
	eachGap(skip, len(y), func(from, to int) {
		if i, sq := scan(y[from:to], 1, bestSq); i >= 0 {
			bestIdx, bestSq = from+i, sq
		}
	})
	if bestIdx < 0 {
		return -1, 0, y3, nil
	}
	y3[1] = y[bestIdx]
	if bestIdx > 0 {
		y3[0] = y[bestIdx-1]
	}
	if bestIdx < len(y)-1 {
		y3[2] = y[bestIdx+1]
	}
	return bestIdx, bestSq, y3, nil
}
