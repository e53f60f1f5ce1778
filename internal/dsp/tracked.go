package dsp

import (
	"fmt"
	"math"
	"slices"
)

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
// For the bounds of TrackedOutputs' lazy update each template also has a
// reach table: reach_t[j] is the largest |g_t| over the reachGroups
// peakBlock-output groups of g_t's periodic extension from group j on,
// g_t[16j … 16(j+reachGroups)) mod N. A chunk of at most chunk segment
// samples moves the outputs of one block by terms that read g_t over a
// window of 16 + F·(chunk − 1) ≤ 16·(reachGroups − 1) + 1 indices, which
// lie in the reachGroups groups from the window's first group on.
//
// The kernels are read-only once built, so any number of TrackedOutputs,
// on any goroutines, may share one.
type OutputKernels struct {
	n, factor int
	impulse   []float64      // the up-sampler's h, twice over (UpsamplePlan.impulse)
	g         [][]float64    // g[t]: template t's table, twice over
	reach     [][]float64    // reach[t][j]: template t's reach table, one entry per block
	chunk     int            // segment samples per bound term
	taps      [][]complex128 // c_t, the bank's matched-filter taps
	maxWrap   int            // the longest template's wrapped outputs, L_max − 1
	avx2      bool           // update and scan on the AVX2 kernels (fft_amd64.s)
}

// reachGroups is the span of a reach table entry in peakBlock-output
// groups. Four groups hold the window of a 9-sample chunk at factor 4.
const reachGroups = 4

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
		reach:   make([][]float64, len(b.tmpls)),
		chunk:   1 + (peakBlock*(reachGroups-2)+1)/up.factor,
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
	nb := blocks(n)
	groups := make([]float64, nb+reachGroups-1)
	reach := make([]float64, nb*len(b.tmpls))
	for t, g := range k.g {
		i := 0 // the group's next index, mod n
		for j := range groups {
			m := 0.0
			for range peakBlock {
				if a := math.Abs(g[i]); a > m || a != a {
					m = a // a NaN entry makes its groups NaN
				}
				if i++; i == n {
					i = 0
				}
			}
			groups[j] = m
		}
		r := reach[nb*t : nb*(t+1)]
		for j := range r {
			r[j] = slices.Max(groups[j : j+reachGroups])
		}
		k.reach[t] = r
	}
	return k, nil
}

// blocks returns how many peakBlock-output blocks n outputs make, the last
// one partial when n is not a multiple of peakBlock.
func blocks(n int) int { return (n + peakBlock - 1) / peakBlock }

// NewOutputs returns output state on the kernels, holding no signal:
// Load before scanning.
func (k *OutputKernels) NewOutputs() *TrackedOutputs {
	nt, nb := len(k.g), blocks(k.n)
	o := &TrackedOutputs{
		k:    k,
		out:  make([][]complex128, nt),
		tm:   make([]blockState, nt),
		runs: make([]listedRun, 0, max(listSamples, k.n/k.factor)),
		segs: make([]complex128, 0, max(listSamples, k.n/k.factor)),
		gaps: make([][2]int, 0, 16),
		pre:  make([]complex128, k.maxWrap),
		wrap: make([]complex128, k.maxWrap),
	}
	buf := make([]complex128, k.n*nt)
	bounds := make([]float64, 2*nb*nt)
	idx := make([]int32, 2*nb*nt)
	for t := range o.out {
		o.out[t] = buf[k.n*t : k.n*(t+1)]
		o.tm[t] = blockState{
			bound:   bounds[2*nb*t : 2*nb*t+nb],
			rec:     bounds[2*nb*t+nb : 2*nb*(t+1)],
			recIdx:  idx[2*nb*t : 2*nb*t+nb],
			applied: idx[2*nb*t+nb : 2*nb*(t+1)],
			lazy:    (k.n - (len(k.taps[t]) - 1)) / peakBlock,
		}
		if len(k.taps[t]) == 1 {
			o.tm[t].lazy = nb
		}
	}
	return o
}

// TrackedOutputs keeps every template's full matched-filter output against
// a signal that changes only by added up-sampled segments, the
// detector's residual between two subtracted pulses: Load filters a
// freshly ingested signal once, AddSegment updates the outputs for a
// segment added to it with no transform (OutputKernels), and ScanBest
// reads them. The outputs equal a fresh Ingest and filter of the updated
// signal up to rounding, not bit for bit: the update adds the segment's
// terms in a different order than the transform.
//
// The update is lazy. The outputs are kept in blocks of peakBlock, and
// AddSegment lists the segment and, for every block, raises an upper
// bound on its outputs' magnitudes by each chunk's norm times the chunk's
// reach table entry (OutputKernels). ScanBest brings current only the blocks
// whose bound can still reach the best output so far, applying their
// listed updates in the order they came, by the same per-output
// operations as applying every update to every output at once. The
// blocks that hold a template's wrapped outputs, its last L_t − 1, take
// each update at once. So every output, once current, and every scan
// result equal those of the update applied to all outputs at once, bit
// for bit. DESIGN.md §10 gives the bound and its rounding margin.
//
// TrackedOutputs is not safe for concurrent use; give each goroutine its
// own (OutputKernels.NewOutputs).
type TrackedOutputs struct {
	k     *OutputKernels
	out   [][]complex128 // out[t][i]: template t's output at signal sample i, stale in blocks behind the list
	tm    []blockState   // per template: its blocks' bounds and records
	runs  []listedRun    // the updates since the list was last cleared, in order, run by run
	segs  []complex128   // their segments, back to back
	gaps  [][2]int       // ScanBest's stretches between the skip intervals
	pre   []complex128   // U(seg) over the first maxWrap samples
	wrap  []complex128   // one template's wrapped terms
	scans int64
	// caughtUp counts the blocks brought current, for the benchmarks.
	caughtUp int64
}

// blockState is one template's per-block state. A block is current when
// it has taken every listed run; its pending runs are always the list's
// last len(runs) − applied. Blocks from lazy on hold wrapped outputs and
// are always current.
type blockState struct {
	bound   []float64 // an upper bound on the block's output magnitudes
	rec     []float64 // the block's largest squared magnitude when last current (0: none above 0)
	recIdx  []int32   // its first index in the block, −1 with rec 0
	applied []int32   // how many listed runs the block has taken
	lazy    int       // the first block holding a wrapped output
}

// listedRun is one run of nonzero samples of a listed segment, the unit
// addSegment applies: it adds Σ_j run[j]·g_t[off + i + F·(len(run)−1−j)]
// to output i, with off = N − F·(the run's last input sample).
type listedRun struct {
	run []complex128
	off int
}

// listSamples is the update list's least capacity in segment samples: 64
// updates (the detector's default iteration cap) of a 16-sample pulse. It
// also holds any one segment, a whole input window, and as many runs,
// since a run is a sample at least. An update that does not fit brings
// every block current and clears the list first.
const listSamples = 1024

// Bounds compare with the best squared magnitude so far inflated by
// lazyMargin, which covers the rounding of the bound and of the sums the
// block takes later (DESIGN.md §10); below minSkipSq the squared
// magnitudes lose their relative precision to underflow and no block is
// passed over.
const (
	lazyMargin = 1 + 0x1p-20
	minSkipSq  = 0x1p-900
)

// Scans returns how many template scans ran since the outputs were built.
func (o *TrackedOutputs) Scans() int64 { return o.scans }

// Load replaces the outputs with every template's matched-filter output
// against the signal b last ingested: one inverse transform per template
// with the overlap-save repair (ScanBest's), every output kept. b must be
// the bank the kernels were built on, or a clone of it, and scratch
// NewScratch-sized. It clears the update list.
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
	o.reset()
	return nil
}

// reset clears the update list and records every block of the outputs as
// they stand.
func (o *TrackedOutputs) reset() {
	o.runs, o.segs = o.runs[:0], o.segs[:0]
	for t := range o.tm {
		clear(o.tm[t].applied)
		for b := range o.tm[t].bound {
			o.record(t, b)
		}
	}
}

// AddSegment updates the outputs for the addition of the up-sampled image
// of seg, placed at input sample lo, to the signal — what
// UpsamplePlan.AddSegment adds to it. Each template's outputs take the
// circular update from its table, and its last L_t − 1 outputs then lose
// the wrapped terms Σ_{k≤j} c_t[k]·U(seg)[j−k], a tail repair of U(seg)'s
// first samples. The blocks holding those take both now; the others only
// raise their bounds and take the update when a scan brings them current.
// An empty segment is a no-op; otherwise it panics unless the segment lies
// inside the input window.
func (o *TrackedOutputs) AddSegment(seg []complex128, lo int) {
	k := o.k
	if len(seg) == 0 {
		return
	}
	if in := k.n / k.factor; lo < 0 || lo+len(seg) > in {
		panic(fmt.Sprintf("dsp: segment [%d, %d) outside the %d-sample input", lo, lo+len(seg), in))
	}
	if len(o.segs)+len(seg) > cap(o.segs) {
		o.flush()
	}
	from, first := len(o.segs), len(o.runs)
	o.segs = append(o.segs, seg...)
	seg = o.segs[from:]
	// The runs are addSegment's: the nonzero samples between zeros.
	for j := 0; j < len(seg); {
		if seg[j] == 0 {
			j++
			continue
		}
		end := j + 1
		for end < len(seg) && seg[end] != 0 {
			end++
		}
		o.runs = append(o.runs, listedRun{run: seg[j:end], off: k.n - k.factor*(lo+end-1)})
		j = end
	}
	clear(o.pre)
	addSegment(o.pre, seg, lo, k.impulse, k.factor, k.avx2)
	for t, y := range o.out {
		st := &o.tm[t]
		if a := st.lazy * peakBlock; a < k.n {
			o.applyRuns(t, a, y[a:], o.runs[first:])
			taps := k.taps[t]
			w := o.wrap[:len(taps)-1]
			repairTail(w, taps, o.pre, k.avx2)
			tail := y[k.n-len(w):]
			for j, v := range w {
				tail[j] -= v
			}
			for b := st.lazy; b < len(st.bound); b++ {
				st.applied[b] = int32(len(o.runs))
				o.record(t, b)
			}
		}
		// A chunk's terms move an output by at most the chunk's norm,
		// ‖(‖re‖₁, ‖im‖₁)‖₂, times the largest |g_t| they read: from
		// index 16b − F·(the chunk's last sample) mod N on, for the outputs
		// of block b, which is in group b − ⌈d/16⌉ for the blocks at or
		// past d = F·(last sample) and in group b + ⌊(N − d)/16⌋ for
		// those before.
		reach, bound := k.reach[t], st.bound[:st.lazy]
		for c := 0; c < len(seg); c += k.chunk {
			var re, im float64
			for _, v := range seg[c:min(c+k.chunk, len(seg))] {
				re += math.Abs(real(v))
				im += math.Abs(imag(v))
			}
			nrm := math.Hypot(re, im)
			d := k.factor * (lo + min(c+k.chunk, len(seg)) - 1)
			split := min((d+peakBlock-1)/peakBlock, len(bound))
			for b, r := range reach[(k.n-d)/peakBlock:][:split] {
				bound[b] += nrm * r
			}
			for b, r := range reach[:len(bound)-split] {
				bound[split+b] += nrm * r
			}
		}
	}
}

// flush brings every block current and clears the update list.
func (o *TrackedOutputs) flush() {
	for t := range o.tm {
		st := &o.tm[t]
		for b := 0; b < st.lazy; {
			e := b + 1
			for e < st.lazy && st.applied[e] == st.applied[b] {
				e++
			}
			o.catchUp(t, b, e)
			b = e
		}
		clear(st.applied)
	}
	o.runs, o.segs = o.runs[:0], o.segs[:0]
}

// catchUp brings blocks [b0, b1) of template t current, which must have
// taken the same listed runs, and records them.
func (o *TrackedOutputs) catchUp(t, b0, b1 int) {
	st := &o.tm[t]
	if int(st.applied[b0]) == len(o.runs) {
		return
	}
	a := b0 * peakBlock
	o.applyRuns(t, a, o.out[t][a:min(b1*peakBlock, o.k.n)], o.runs[st.applied[b0]:])
	for b := b0; b < b1; b++ {
		st.applied[b] = int32(len(o.runs))
		o.record(t, b)
	}
	o.caughtUp += int64(b1 - b0)
}

// applyRuns adds the runs to y, template t's outputs from output a on,
// run by run in order: addSegment's passes over those outputs, each
// output taking the same operations whatever stretch y covers.
func (o *TrackedOutputs) applyRuns(t, a int, y []complex128, runs []listedRun) {
	k := o.k
	g := k.g[t][a:]
	for _, r := range runs {
		if k.avx2 {
			addRunAVX2(y, r.run, g[r.off:], k.factor)
		} else {
			addRun(y, r.run, g[r.off:], k.factor)
		}
	}
}

// record sets block b's record from its outputs as they stand, and its
// bound to the record's root.
func (o *TrackedOutputs) record(t, b int) {
	st := &o.tm[t]
	y := o.out[t][b*peakBlock : min((b+1)*peakBlock, o.k.n)]
	i, sq := o.scan()(y, 1, 0)
	st.rec[b], st.recIdx[b], st.bound[b] = sq, int32(i), math.Sqrt(sq)
}

// scan returns the peak scan of the kernels' leg.
func (o *TrackedOutputs) scan() func([]complex128, float64, float64) (int, float64) {
	if o.k.avx2 {
		return peakScanAVX2
	}
	return peakScan
}

// ScanBest returns template t's strongest output outside the skip
// intervals, as SpectralBank.ScanBest does for an ingested signal: its
// index (-1 when every output is skipped or zero), its squared magnitude,
// and the three outputs centered on it (zero where the signal window
// ends). skip must hold inclusive, ascending, disjoint output-index
// intervals.
//
// The scan first brings current the block of largest bound, then visits
// the others in ascending order, passing over a block only when its
// bound, inflated by the rounding margin, is below the best so far (a NaN
// bound never is). A visited block is brought current and its outputs
// between the skip intervals scanned; a block wholly between them is read
// from its record. A larger squared magnitude wins, and of equal ones the
// lower index: the first index of the largest, as one ascending scan of
// every output finds it.
func (o *TrackedOutputs) ScanBest(t int, skip []SkipInterval) (int, float64, [3]complex128, error) {
	var y3 [3]complex128
	if t < 0 || t >= len(o.out) {
		return -1, 0, y3, fmt.Errorf("dsp: template index %d outside bank of %d", t, len(o.out))
	}
	o.scans++
	n, st := o.k.n, &o.tm[t]
	o.gaps = o.gaps[:0]
	eachGap(skip, n, func(from, to int) { o.gaps = append(o.gaps, [2]int{from, to}) })
	top := 0
	for b, v := range st.bound {
		if v > st.bound[top] {
			top = b
		}
	}
	g := 0
	bestIdx, bestSq := o.blockBest(t, top, &g)
	g = 0
	for b, v := range st.bound {
		if b == top || passOver(v, bestSq) {
			continue
		}
		// The blocks after b that the pass would visit at the best so far
		// and that lag as far behind catch up with b, in one pass per run.
		e := b + 1
		for e < len(st.bound) && st.applied[e] == st.applied[b] && !passOver(st.bound[e], bestSq) {
			e++
		}
		o.catchUp(t, b, e)
		if i, sq := o.blockBest(t, b, &g); i >= 0 && (sq > bestSq || sq == bestSq && i < bestIdx) {
			bestIdx, bestSq = i, sq
		}
	}
	if bestIdx < 0 {
		return -1, 0, y3, nil
	}
	y := o.out[t]
	y3[1] = y[bestIdx]
	if i := bestIdx - 1; i >= 0 {
		o.catchUp(t, i/peakBlock, i/peakBlock+1)
		y3[0] = y[i]
	}
	if i := bestIdx + 1; i < n {
		o.catchUp(t, i/peakBlock, i/peakBlock+1)
		y3[2] = y[i]
	}
	return bestIdx, bestSq, y3, nil
}

// passOver reports whether a scan passes over a block of the given bound
// when the best squared magnitude so far is best. A NaN bound never
// passes.
func passOver(bound, best float64) bool {
	return best >= minSkipSq && bound*bound*lazyMargin < best
}

// blockBest returns the first index of template t's largest squared
// magnitude over block b's outputs between the skip intervals, and that
// value, or −1 and 0 when none exceeds 0. It brings the block current
// unless every output is skipped. *g indexes the first of o.gaps that
// may reach the block; calls in ascending block order advance it.
func (o *TrackedOutputs) blockBest(t, b int, g *int) (int, float64) {
	a, z := b*peakBlock, min((b+1)*peakBlock, o.k.n)
	gaps := o.gaps
	for *g < len(gaps) && gaps[*g][1] <= a {
		*g++
	}
	if *g == len(gaps) || gaps[*g][0] >= z {
		return -1, 0
	}
	o.catchUp(t, b, b+1)
	st := &o.tm[t]
	if gp := gaps[*g]; gp[0] <= a && z <= gp[1] {
		if st.recIdx[b] < 0 {
			return -1, 0
		}
		return a + int(st.recIdx[b]), st.rec[b]
	}
	idx, best := -1, 0.0
	for _, gp := range gaps[*g:] {
		if gp[0] >= z {
			break
		}
		from, to := max(gp[0], a), min(gp[1], z)
		if i, sq := o.scan()(o.out[t][from:to], 1, best); i >= 0 {
			idx, best = from+i, sq
		}
	}
	return idx, best
}
