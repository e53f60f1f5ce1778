package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
)

// FrameBank runs the detector's per-round matched-filter search on banks
// that do not keep their outputs in short overlap-save frames, and bounds
// every frame's outputs so that a round filters only the frames that can
// hold its best peak.
//
// Output i of template t is y_t[i] = Σ_k sig[i+k]·conj(s_t[k]), with sig
// zero past its end: SpectralBank.ScanBest's output i. The outputs are cut
// on a fixed grid into frames of H = F − (L_max − 1), with F =
// NextPow2(2·L_max) and L_max the longest template: frame f owns outputs
// [fH, fH+H), and computes them from one F-point transform of its input
// samples sig[fH, fH+F), zero-padded past the signal (Ingest), times
// template t's F-point spectrum, inverse-transformed and scaled by 1/F
// component by component (ScanFrame). An output is always read from the
// frame that owns it, so every output has one value whichever frames a
// round visits. At factor 4 on the 1016-tap CIR that is F = 256, H = 144
// and 29 frames.
//
// The templates hold at most unit energy E_s = max_t ‖s_t‖², so by
// Cauchy–Schwarz |y_t[i]|² ≤ ‖sig[i, i+L_max)‖²·E_s for every template.
// Load sums the signal's energy over 16-sample blocks and bounds each
// frame's outputs by the largest sum over the blocks one output's window
// can touch, times E_s, inflated by a margin for the rounding of the
// bound and of the transforms (Reaches; DESIGN.md §10 gives the margin).
// A round visits the frames in descending order of that bound (Order)
// and stops at the first frame that cannot reach the best peak so far.
//
// Within a frame the templates form groups of ⌈√n⌉ consecutive ones,
// whose first shortest template is the group's representative r
// (Representatives). A member t pairs its output i with r's output
// i + Δ_t, Δ_t = (L_t−1)/2 − (L_r−1)/2, and d_t = ‖s_t[k] − s_r[k−Δ_t]‖₂
// bounds the difference by Cauchy–Schwarz: |y_t[i] − y_r[i+Δ_t]| ≤
// d_t·‖sig[i, i+L_t)‖₂. So the largest output of r over the frame
// (ScanFrame with a peak), the frame's largest reach energy and the
// transforms' rounding bound every member's outputs on it (Members;
// DESIGN.md §10), and a round filters a member only where that bound
// reaches its best.
//
// Load, Ingest and EdgeNeighbours mutate the bank's signal state;
// ScanFrame only reads it (plus an atomic counter) and takes caller-owned
// scratch, so between mutations any number of goroutines may scan the
// ingested frame concurrently.
type FrameBank struct {
	sigLen int
	n      int // transform length F
	hop    int // outputs per frame H
	plan   *fftPlan
	tmpls  []frameTemplate
	reps   []int32 // per group: its representative, in ascending order
	energy float64 // E_s, the largest template energy
	span   int     // the blocks past its own an output's window can reach
	slack  float64 // the transforms' rounding, per unit of frame input energy and E_s

	sig    []complex128 // the signal Load took
	spec   []complex128 // the ingested frame's spectrum, bit-reversed
	cur    int          // the ingested frame, −1 for none
	blockE []float64    // per 16-sample block: the signal's energy
	reachE []float64    // per block: the energy its outputs' windows can reach
	reach  []float64    // per frame: W_f, the largest reach energy of its outputs' blocks
	inE    []float64    // per frame: E_in, the energy of the blocks holding its input
	keys   []float64    // per frame: its bound with the margin
	order  []int32      // the frames by descending key

	ingests, scans atomic.Int64
}

type frameTemplate struct {
	specRev []complex128 // F-point spectrum of the matched-filter taps, bit-reversed
	start   int          // L_t − 1: where a frame's first output sits in the product
	group   int32        // the template's group, an index into reps
	dist    float64      // d_t rounded up; 0 on a representative
}

// NewFrameBank builds the frame search for the given templates and signal
// length. Every template must be non-empty; a template may be longer than
// the signal.
func NewFrameBank(templates [][]complex128, sigLen int) (*FrameBank, error) {
	if sigLen < 1 {
		return nil, fmt.Errorf("dsp: frame bank needs a positive signal length, got %d", sigLen)
	}
	if len(templates) == 0 {
		return nil, fmt.Errorf("dsp: frame bank needs at least one template")
	}
	longest := 0
	for i, t := range templates {
		if len(t) == 0 {
			return nil, fmt.Errorf("dsp: empty template %d", i)
		}
		longest = max(longest, len(t))
	}
	n := NextPow2(2 * longest)
	plan, err := newFFTPlan(n)
	if err != nil {
		return nil, err
	}
	b := &FrameBank{
		sigLen: sigLen,
		n:      n,
		hop:    n - (longest - 1),
		plan:   plan,
		tmpls:  make([]frameTemplate, len(templates)),
		span:   (longest + peakBlock - 2) / peakBlock,
		slack:  math.Ldexp(1, 4*bits.TrailingZeros(uint(n))-64),
	}
	specs := make([]complex128, n*len(templates))
	for i, t := range templates {
		taps := MatchedFilterTaps(t)
		spec := specs[n*i : n*(i+1)]
		plan.spectrumRev(spec, taps)
		b.tmpls[i] = frameTemplate{specRev: spec, start: len(taps) - 1}
		b.energy = max(b.energy, Energy(taps))
	}
	b.groupTemplates(templates)
	b.initSignalState()
	return b, nil
}

// groupTemplates splits the templates into groups of ⌈√n⌉ consecutive
// ones, picks each group's first shortest template as its representative
// and gives every member its distance to it, rounded up: d_t =
// ‖s_t[k] − s_r[k − Δ_t]‖₂ over k ∈ [0, L_t), s_r zero outside [0, L_r),
// with Δ_t = c_t − c_r and c = (L−1)/2. Since L_r ≤ L_t,
// 0 ≤ Δ_t ≤ L_t − L_r, so the shifted representative lies inside the
// member's taps.
func (b *FrameBank) groupTemplates(templates [][]complex128) {
	size := 1
	for size*size < len(templates) {
		size++
	}
	for lo := 0; lo < len(templates); lo += size {
		hi := min(lo+size, len(templates))
		r := lo
		for t := lo + 1; t < hi; t++ {
			if len(templates[t]) < len(templates[r]) {
				r = t
			}
		}
		g := int32(len(b.reps))
		b.reps = append(b.reps, int32(r))
		sr := templates[r]
		for t := lo; t < hi; t++ {
			b.tmpls[t].group = g
			if t == r {
				continue
			}
			st := templates[t]
			shift := (len(st)-1)/2 - (len(sr)-1)/2
			e := 0.0
			for k, c := range st {
				if j := k - shift; j >= 0 && j < len(sr) {
					c -= sr[j]
				}
				e += real(c)*real(c) + imag(c)*imag(c)
			}
			b.tmpls[t].dist = sqrtUp(e)
		}
	}
}

// sqrtUp returns √x rounded up: the next float64 above the correctly
// rounded root.
func sqrtUp(x float64) float64 { return math.Nextafter(math.Sqrt(x), math.Inf(1)) }

// initSignalState allocates the bank's signal state.
func (b *FrameBank) initSignalState() {
	nb := blocks(b.sigLen)
	b.spec = make([]complex128, b.n)
	b.cur = -1
	b.blockE = make([]float64, nb)
	b.reachE = make([]float64, nb)
	b.reach = make([]float64, b.Frames())
	b.inE = make([]float64, b.Frames())
	b.keys = make([]float64, b.Frames())
	b.order = make([]int32, b.Frames())
}

// Clone returns a new bank sharing b's immutable state — the plan, the
// template spectra and the groups — while owning fresh signal state and
// zeroed execution counters. The clone holds no signal: Load before
// searching.
func (b *FrameBank) Clone() *FrameBank {
	c := &FrameBank{
		sigLen: b.sigLen,
		n:      b.n,
		hop:    b.hop,
		plan:   b.plan,
		tmpls:  b.tmpls,
		reps:   b.reps,
		energy: b.energy,
		span:   b.span,
		slack:  b.slack,
	}
	c.initSignalState()
	return c
}

// Frames returns how many frames cover the signal's outputs.
func (b *FrameBank) Frames() int { return (b.sigLen + b.hop - 1) / b.hop }

// Ingests and Scans return how many frames were transformed and how many
// template filterings of a frame ran since the bank was built.
func (b *FrameBank) Ingests() int64 { return b.ingests.Load() }
func (b *FrameBank) Scans() int64   { return b.scans.Load() }

// NewScratch returns a scratch buffer sized for ScanFrame and
// EdgeNeighbours: the product transform and, where the plan records
// them, its peak blocks. Allocate one per goroutine.
func (b *FrameBank) NewScratch() []complex128 {
	return make([]complex128, b.scratchLen())
}

func (b *FrameBank) scratchLen() int {
	if b.plan.peakEpilogue() {
		return b.n + b.n/peakBlock
	}
	return b.n
}

// Load takes the signal the next searches read, which must stay unchanged
// until the next Load, bounds every frame's outputs and orders the
// frames. It transforms nothing.
//
// A block's reach energy is the signal's energy over it and the span
// blocks after it, which hold the window [i, i+L_max) of every output i
// in the block. A frame's key is the largest reach energy of its outputs'
// blocks times E_s, inflated by lazyMargin, plus slack times E_s times
// the energy of the blocks holding the frame's input.
func (b *FrameBank) Load(sig []complex128) error {
	if len(sig) != b.sigLen {
		return fmt.Errorf("dsp: frame bank built for %d-sample signals, got %d", b.sigLen, len(sig))
	}
	b.sig, b.cur = sig, -1
	for k := range b.blockE {
		b.blockE[k] = Energy(sig[k*peakBlock : min((k+1)*peakBlock, len(sig))])
	}
	for k := range b.reachE {
		e := 0.0
		for _, v := range b.blockE[k:min(k+b.span+1, len(b.blockE))] {
			e += v
		}
		b.reachE[k] = e
	}
	for f := range b.keys {
		lo := f * b.hop
		w := 0.0
		for _, e := range b.reachE[lo/peakBlock : (min(lo+b.hop, b.sigLen)-1)/peakBlock+1] {
			if e > w || e != e {
				w = e // a NaN energy makes the key NaN
			}
		}
		in := 0.0
		for _, e := range b.blockE[lo/peakBlock : (min(lo+b.n, b.sigLen)-1)/peakBlock+1] {
			in += e
		}
		b.reach[f], b.inE[f] = w, in
		b.keys[f] = w*b.energy*lazyMargin + in*b.energy*b.slack
		b.order[f] = int32(f)
	}
	slices.SortFunc(b.order, func(x, y int32) int {
		kx, ky := sortKey(b.keys[x]), sortKey(b.keys[y])
		switch {
		case kx > ky:
			return -1
		case kx < ky:
			return 1
		}
		return int(x - y)
	})
	return nil
}

// sortKey orders a NaN key with +Inf: first, never passed over.
func sortKey(k float64) float64 {
	if k != k {
		return math.Inf(1)
	}
	return k
}

// Order returns the frames in the order a round visits them: descending
// key, ties by ascending frame. It is valid until the next Load.
func (b *FrameBank) Order() []int32 { return b.order }

// Reaches reports whether frame f may hold an output whose squared
// magnitude, as ScanFrame computes it, reaches best: false only when best
// is at least minSkipSq and the frame's key is below it. A NaN key always
// reaches. Later frames of Order have no larger keys, so a round may stop
// at the first frame that does not reach its best.
func (b *FrameBank) Reaches(f int, best float64) bool {
	return !(best >= minSkipSq && b.keys[f] < best)
}

// Ingest transforms frame f's input samples, zero-padded past the signal,
// into the bank's spectrum, in bit-reversed order (fftPlan.spectrumRev),
// unless f is the frame it holds already.
func (b *FrameBank) Ingest(f int) error {
	if b.sig == nil {
		return fmt.Errorf("dsp: frame ingest before Load")
	}
	if f < 0 || f >= b.Frames() {
		return fmt.Errorf("dsp: frame %d outside %d frames", f, b.Frames())
	}
	if f == b.cur {
		return nil
	}
	lo := f * b.hop
	b.plan.spectrumRev(b.spec, b.sig[lo:min(lo+b.n, b.sigLen)])
	b.cur = f
	b.ingests.Add(1)
	return nil
}

// ScanFrame filters the ingested frame with template t and returns its
// strongest output outside the skip intervals: the output index (-1 when
// every output of the frame is skipped or zero), its squared magnitude,
// and the outputs at index−1, index and index+1 that the frame owns (zero
// for a neighbour another frame owns or the signal lacks;
// EdgeNeighbours reads those). The scan is SpectralBank.ScanBest's over
// the frame's outputs: ascending index under a strict >, so the first
// index of the frame's largest squared magnitude wins. skip must hold
// inclusive, ascending, disjoint output-index intervals; scratch must be
// at least NewScratch-sized.
//
// A non-nil peak receives the largest squared magnitude over every
// unwrapped output the frame's product holds, skip intervals ignored:
// outputs [fH, min(fH + F − L_t + 1, N)), the frame's own and the next
// F − L_max past them (0 when none exceeds 0). On a representative that
// is the M_r Members takes.
func (b *FrameBank) ScanFrame(scratch []complex128, t int, skip []SkipInterval, peak *float64) (int, float64, [3]complex128, error) {
	var y3 [3]complex128
	if t < 0 || t >= len(b.tmpls) {
		return -1, 0, y3, fmt.Errorf("dsp: template index %d outside bank of %d", t, len(b.tmpls))
	}
	if n := b.scratchLen(); len(scratch) < n {
		return -1, 0, y3, fmt.Errorf("dsp: ScanFrame scratch needs %d samples, got %d", n, len(scratch))
	}
	if b.cur < 0 {
		return -1, 0, y3, fmt.Errorf("dsp: frame scan before Ingest")
	}
	b.scans.Add(1)
	st := b.tmpls[t]
	prod := scratch[:b.n]
	s := 1 / float64(b.n)
	var peaks []complex128
	if b.plan.peakEpilogue() {
		peaks = scratch[b.n : b.n+b.n/peakBlock]
		b.plan.productTransformPeaks(prod, st.specRev, b.spec, b.plan.inv, s, peaks)
	} else {
		b.plan.productTransformPermuted(prod, st.specRev, b.spec, b.plan.inv)
	}
	scan := peakScan
	if b.plan.avx2 {
		scan = peakScanAVX2
	}
	lo := b.cur * b.hop
	hi := min(lo+b.hop, b.sigLen)
	off := st.start - lo // output i sits at prod[i+off]
	if peak != nil {
		_, *peak = blockScan(prod, peaks, st.start, min(b.n, st.start+b.sigLen-lo), s, 0, scan)
	}
	bestIdx, bestSq := -1, 0.0
	eachGap(skip, hi, func(from, to int) {
		if from = max(from, lo); from < to {
			if i, sq := blockScan(prod, peaks, from+off, to+off, s, bestSq, scan); i >= 0 {
				bestIdx, bestSq = i-off, sq
			}
		}
	})
	if bestIdx < 0 {
		return -1, 0, y3, nil
	}
	for k := range y3 {
		if i := bestIdx - 1 + k; i >= lo && i < hi {
			y3[k] = scaled(prod[i+off], s)
		}
	}
	return bestIdx, bestSq, y3, nil
}

// Representatives returns each group's representative, in ascending
// group order: the templates a visited frame always filters. The slice is
// the bank's own and must not be modified.
func (b *FrameBank) Representatives() []int32 { return b.reps }

// Members appends to dst, in ascending order, every template other than
// a representative whose outputs on the ingested frame may reach best,
// given peaks[g], the largest squared magnitude ScanFrame found over
// group g's representative's unwrapped outputs of the frame. It passes
// member t over only when best is at least minSkipSq and
//
//	(√M_r + 2ε_f + d_t·√W_f)²·(1 + 2^−20) < best,
//
// square roots rounded up, with W_f the frame's largest reach energy and
// ε_f = √(F⁴·2^−64·E_s·E_in), the key's absolute term under a root: then
// no output of t on the frame reaches best (DESIGN.md §10). A NaN
// anywhere in the bound never passes over.
func (b *FrameBank) Members(dst []int32, peaks []float64, best float64) []int32 {
	f := b.cur
	sqW := sqrtUp(b.reach[f])
	eps2 := 2 * sqrtUp(b.slack*b.energy*b.inE[f])
	g, rep := int32(-1), 0.0
	for t, st := range b.tmpls {
		if st.group != g {
			g = st.group
			rep = sqrtUp(peaks[g]) + eps2
		}
		if b.reps[g] != int32(t) && !passOver(rep+st.dist*sqW, best) {
			dst = append(dst, int32(t))
		}
	}
	return dst
}

// scaled returns v with both components multiplied by s.
func scaled(v complex128, s float64) complex128 {
	return complex(real(v)*s, imag(v)*s)
}

// EdgeNeighbours sets y3[0] and y3[2], the outputs of template t at i−1
// and i+1, where a frame other than i's owns them, to the value that
// frame computes: one more product transform, after ingesting that frame
// when the bank holds another. It leaves the other entries alone and
// reads no neighbour the signal lacks. scratch must be at least
// NewScratch-sized.
func (b *FrameBank) EdgeNeighbours(scratch []complex128, t, i int, y3 *[3]complex128) error {
	if t < 0 || t >= len(b.tmpls) {
		return fmt.Errorf("dsp: template index %d outside bank of %d", t, len(b.tmpls))
	}
	if len(scratch) < b.scratchLen() {
		return fmt.Errorf("dsp: EdgeNeighbours scratch needs %d samples, got %d", b.scratchLen(), len(scratch))
	}
	for k := 0; k < 3; k += 2 {
		j := i - 1 + k
		if j < 0 || j >= b.sigLen || j/b.hop == i/b.hop {
			continue
		}
		if err := b.Ingest(j / b.hop); err != nil {
			return err
		}
		b.scans.Add(1)
		prod := scratch[:b.n]
		b.plan.productTransformPermuted(prod, b.tmpls[t].specRev, b.spec, b.plan.inv)
		y3[k] = scaled(prod[j-b.cur*b.hop+b.tmpls[t].start], 1/float64(b.n))
	}
	return nil
}
