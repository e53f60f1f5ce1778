package dsp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// This file checks TrackedOutputs: its maintained outputs against a fresh
// Ingest and filter of the up-sampled signal AddSegment maintains, its
// lazy update against the eager one (every update applied to every
// output at once, eagerOutputs) bit for bit, and its AVX2 leg against its
// Go leg bit for bit.

// realTemplates returns random real templates of the given lengths.
func realTemplates(rng *rand.Rand, lens ...int) [][]complex128 {
	out := make([][]complex128, len(lens))
	for i, l := range lens {
		out[i] = make([]complex128, l)
		for k := range out[i] {
			out[i][k] = complex(rng.NormFloat64(), 0)
		}
	}
	return out
}

// trackedSetup builds a bank on the templates for n input samples up-sampled
// by factor, its up-sampler and output kernels, and outputs loaded from
// sig, the up-sampled signal.
func trackedSetup(t testing.TB, templates [][]complex128, n, factor int, sig []complex128) (*SpectralBank, *UpsamplePlan, *TrackedOutputs) {
	t.Helper()
	b, err := NewSpectralBank(templates, n*factor)
	if err != nil {
		t.Fatal(err)
	}
	up, err := NewUpsamplePlan(n, factor)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewOutputKernels(b, up, make([]complex128, n*factor), b.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	o := k.NewOutputs()
	if err := b.Ingest(sig); err != nil {
		t.Fatal(err)
	}
	if err := o.Load(b, b.NewScratch()); err != nil {
		t.Fatal(err)
	}
	return b, up, o
}

// requireFreshOutputs brings every block of o current and fails unless
// its outputs equal a fresh Ingest and filter of sig on b within tol of
// the output scale ‖c_t‖₁·max|sig|, the largest magnitude an output can
// reach. A transform's rounding error scales with it, not with the largest
// output: a tap that multiplies the signal's largest sample in no output
// still rounds every output.
func requireFreshOutputs(t testing.TB, b *SpectralBank, o *TrackedOutputs, sig []complex128, tol float64, what string) {
	t.Helper()
	o.flush()
	if err := b.Ingest(sig); err != nil {
		t.Fatal(err)
	}
	scratch := b.NewScratch()
	want := make([]complex128, len(sig))
	peak := 0.0
	for _, v := range sig {
		peak = math.Max(peak, math.Hypot(real(v), imag(v)))
	}
	for tm, got := range o.out {
		b.filterInto(want, scratch, tm)
		scale := 0.0
		for _, c := range b.tmpls[tm].taps {
			scale += math.Hypot(real(c), imag(c))
		}
		scale *= peak
		for i := range want {
			if d := got[i] - want[i]; math.Hypot(real(d), imag(d)) > tol*scale {
				t.Fatalf("%s, template %d (%d taps), output %d of %d: tracked %v, fresh %v (scale %g)",
					what, tm, len(b.tmpls[tm].taps), i, len(want), got[i], want[i], scale)
			}
		}
	}
}

// requireBankScans fails unless o, loaded from the signal b holds, scans
// every template as SpectralBank.ScanBest does, with and without skip
// intervals: the same index and squared magnitude, bit for bit (both
// scale each output's components by 1/M before squaring), and the same
// three outputs.
func requireBankScans(t testing.TB, b *SpectralBank, o *TrackedOutputs, what string) {
	t.Helper()
	n := b.sigLen
	scratch := b.NewScratch()
	for _, skip := range [][]SkipInterval{nil, {{Lo: 0, Hi: n / 3}}, {{Lo: 1, Hi: 2}, {Lo: n / 2, Hi: n/2 + 5}, {Lo: n - 4, Hi: n + 2}}} {
		for tm := range o.out {
			wi, wsq, wy3, err := b.ScanBest(scratch, tm, skip)
			if err != nil {
				t.Fatal(err)
			}
			gi, gsq, gy3, err := o.ScanBest(tm, skip)
			if err != nil {
				t.Fatal(err)
			}
			if gi != wi || gsq != wsq || gy3 != wy3 {
				t.Fatalf("%s, template %d, skip %v: tracked scan (%d, %v, %v), bank scan (%d, %v, %v)",
					what, tm, skip, gi, gsq, gy3, wi, wsq, wy3)
			}
		}
	}
}

// TestTrackedOutputsMatchIngest: loaded outputs scan as the bank does,
// and after each of 40 updates by random segments (at the window's start,
// inside it and ending at its end, some split by zero samples), the
// tracked outputs must equal Ingest plus a full filter of the up-sampled
// signal UpsamplePlan.AddSegment maintains, within 1e-12 of the output
// scale — on odd and even input and output lengths, factors 1 and 4, and
// random real templates up to the longest the kernels admit (L − 1 = N)
// and longer than the signal.
func TestTrackedOutputsMatchIngest(t *testing.T) {
	for _, c := range []struct{ n, factor int }{{61, 1}, {64, 1}, {37, 4}, {50, 4}, {1016, 4}} {
		N := c.n * c.factor
		rng := rand.New(rand.NewPCG(uint64(N), 17))
		lens := []int{1, 2 + rng.IntN(N/2), min(97, N), N + 1}
		if c.n == 1016 {
			lens = []int{37, 75, 97, 2 + rng.IntN(N)}
		}
		templates := realTemplates(rng, lens...)
		sig := make([]complex128, N)
		up, err := NewUpsamplePlan(c.n, c.factor)
		if err != nil {
			t.Fatal(err)
		}
		up.Execute(sig, randComplex(c.n, uint64(N)))
		b, _, o := trackedSetup(t, templates, c.n, c.factor, sig)
		requireFreshOutputs(t, b, o, sig, 1e-12, fmt.Sprintf("n=%d factor=%d, loaded", c.n, c.factor))
		requireBankScans(t, b, o, fmt.Sprintf("n=%d factor=%d", c.n, c.factor))
		for u := 0; u < 40; u++ {
			seg := randComplex(1+rng.IntN(min(25, c.n)), uint64(u))
			if rng.IntN(4) == 0 && len(seg) > 2 {
				seg[1+rng.IntN(len(seg)-2)] = 0
			}
			var lo int
			switch u % 3 {
			case 0:
				lo = 0
			case 1:
				lo = rng.IntN(c.n - len(seg) + 1)
			default:
				lo = c.n - len(seg)
			}
			up.AddSegment(sig, seg, lo)
			o.AddSegment(seg, lo)
			requireFreshOutputs(t, b, o, sig, 1e-12,
				fmt.Sprintf("n=%d factor=%d, update %d ([%d, %d))", c.n, c.factor, u, lo, lo+len(seg)))
		}
	}
}

// TestTrackableGuards: the kernels admit real templates that wrap at most
// once, and refuse complex templates and templates over N+1 taps.
func TestTrackableGuards(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for _, c := range []struct {
		templates [][]complex128
		want      bool
	}{
		{realTemplates(rng, 5, 41), true},
		{realTemplates(rng, 41, 9), true},
		{realTemplates(rng, 41, 42), false},
		{spectralTestTemplates(5), false},
	} {
		b, err := NewSpectralBank(c.templates, 40)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Trackable(); got != c.want {
			t.Errorf("templates of %d and %d taps: Trackable %v, want %v", len(c.templates[0]), len(c.templates[len(c.templates)-1]), got, c.want)
		}
		up, err := NewUpsamplePlan(10, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewOutputKernels(b, up, make([]complex128, 40), b.NewScratch()); (err == nil) != c.want {
			t.Errorf("NewOutputKernels error %v, want one: %v", err, !c.want)
		}
	}
}

// eagerOutputs is the oracle of TrackedOutputs' lazy update: each update
// applied to every output at once, the circular update from the template's
// table and then the wrapped terms' subtraction, and every output scanned.
type eagerOutputs struct {
	k         *OutputKernels
	out       [][]complex128
	pre, wrap []complex128
}

// newEagerOutputs returns the oracle holding o's outputs, which must all
// be current.
func newEagerOutputs(o *TrackedOutputs) *eagerOutputs {
	e := &eagerOutputs{k: o.k, pre: make([]complex128, o.k.maxWrap), wrap: make([]complex128, o.k.maxWrap)}
	for _, y := range o.out {
		e.out = append(e.out, append([]complex128(nil), y...))
	}
	return e
}

func (e *eagerOutputs) addSegment(seg []complex128, lo int) {
	k := e.k
	if len(seg) == 0 {
		return
	}
	clear(e.pre)
	addSegment(e.pre, seg, lo, k.impulse, k.factor, k.avx2)
	for t, y := range e.out {
		addSegment(y, seg, lo, k.g[t], k.factor, k.avx2)
		taps := k.taps[t]
		w := e.wrap[:len(taps)-1]
		repairTail(w, taps, e.pre, k.avx2)
		tail := y[k.n-len(w):]
		for j, v := range w {
			tail[j] -= v
		}
	}
}

func (e *eagerOutputs) scanBest(t int, skip []SkipInterval) (int, float64, [3]complex128) {
	var y3 [3]complex128
	y := e.out[t]
	scan := peakScan
	if e.k.avx2 {
		scan = peakScanAVX2
	}
	bestIdx, bestSq := -1, 0.0
	eachGap(skip, len(y), func(from, to int) {
		if i, sq := scan(y[from:to], 1, bestSq); i >= 0 {
			bestIdx, bestSq = from+i, sq
		}
	})
	if bestIdx < 0 {
		return -1, 0, y3
	}
	y3[1] = y[bestIdx]
	if bestIdx > 0 {
		y3[0] = y[bestIdx-1]
	}
	if bestIdx < len(y)-1 {
		y3[2] = y[bestIdx+1]
	}
	return bestIdx, bestSq, y3
}

// requireEagerScans fails unless every template's lazy scan returns the
// oracle's index, squared magnitude and three outputs, bit for bit.
func requireEagerScans(t testing.TB, o *TrackedOutputs, e *eagerOutputs, skip []SkipInterval, what string) {
	t.Helper()
	for tm := range o.out {
		gi, gsq, gy3, err := o.ScanBest(tm, skip)
		if err != nil {
			t.Fatal(err)
		}
		wi, wsq, wy3 := e.scanBest(tm, skip)
		if gi != wi || math.Float64bits(gsq) != math.Float64bits(wsq) || firstBitDiff(gy3[:], wy3[:]) >= 0 {
			t.Fatalf("%s, template %d, skip %v: lazy scan (%d, %v, %v), eager (%d, %v, %v)",
				what, tm, skip, gi, gsq, gy3, wi, wsq, wy3)
		}
	}
}

// requireEagerOutputs brings every block of o current and fails unless
// every output equals the oracle's bit for bit, NaN bits included.
func requireEagerOutputs(t testing.TB, o *TrackedOutputs, e *eagerOutputs, what string) {
	t.Helper()
	o.flush()
	for tm, y := range e.out {
		if i := firstBitDiff(o.out[tm], y); i >= 0 {
			t.Fatalf("%s, template %d: output %d = %v lazily, %v eagerly", what, tm, i, o.out[tm][i], y[i])
		}
	}
}

// randomSkip returns up to four ascending, disjoint skip intervals over n
// outputs, some reaching past either end.
func randomSkip(rng *rand.Rand, n int) []SkipInterval {
	var skip []SkipInterval
	next := -3
	for range rng.IntN(5) {
		lo := next + rng.IntN(n/3+1)
		hi := lo + rng.IntN(20)
		if lo >= n+3 {
			break
		}
		skip = append(skip, SkipInterval{Lo: lo, Hi: hi})
		next = hi + 2
	}
	return skip
}

// pulseTemplates returns real pulse-like templates of the given lengths:
// a cosine under a Gaussian window, whose filter outputs fall off away
// from their peaks as the detector's do.
func pulseTemplates(lens ...int) [][]complex128 {
	out := make([][]complex128, len(lens))
	for i, l := range lens {
		out[i] = make([]complex128, l)
		for k := range out[i] {
			x := (float64(k) - float64(l-1)/2) / (float64(l)/6 + 0.5)
			out[i][k] = complex(math.Cos(0.7*float64(k)+float64(i))*math.Exp(-x*x/2), 0)
		}
	}
	return out
}

// sparseSignal returns a signal of n input samples up-sampled by the plan:
// a few responses of amplitude about 100 over unit-scale noise of rms 0.01.
func sparseSignal(rng *rand.Rand, up *UpsamplePlan) []complex128 {
	x := make([]complex128, up.n)
	for i := range x {
		x[i] = complex(0.01*rng.NormFloat64(), 0.01*rng.NormFloat64())
	}
	for range 4 {
		x[rng.IntN(len(x))] += complex(100*rng.NormFloat64(), 100*rng.NormFloat64())
	}
	return up.Execute(make([]complex128, up.n*up.factor), x)
}

// plantTies copies each template's largest output into up to three other
// outputs and records the blocks anew, so equal magnitudes meet across
// blocks, and then raises random bounds, which stay bounds. The last
// block holding the largest output gets the largest bound, so the scan
// visits it first and must still return the first index holding it.
func plantTies(rng *rand.Rand, o *TrackedOutputs) {
	for tm, y := range o.out {
		top, _ := peakScan(y, 1, 0)
		if top < 0 {
			continue
		}
		for range 1 + rng.IntN(3) {
			y[rng.IntN(len(y))] = y[top]
		}
		o.reset()
		st := &o.tm[tm]
		for b := range st.bound {
			if rng.IntN(3) == 0 {
				st.bound[b] *= 1 + 3*rng.Float64()
			}
		}
		last, _ := peakScan(y, 1, 0)
		for i := last; i < len(y); i++ {
			if y[i] == y[last] {
				last = i
			}
		}
		st.bound[last/peakBlock] = 2*st.bound[last/peakBlock] + 1
	}
}

// staleBlocks counts the blocks of o behind the update list.
func staleBlocks(o *TrackedOutputs) int {
	n := 0
	for _, st := range o.tm {
		for _, a := range st.applied {
			if int(a) < len(o.runs) {
				n++
			}
		}
	}
	return n
}

// TestTrackedOutputsLazyMatchesEager pins the lazy update to the eager
// oracle bit for bit: after every update each template's scan under
// random skip intervals returns the oracle's index, squared magnitude and
// three outputs, and once every block is brought current every output
// equals the oracle's, NaN bits included. Random and pulse-like real
// templates up to the longest the kernels admit (L − 1 = N) on odd and
// even N at factors 1 and 4, partial last blocks included (a one-tap
// template keeps its partial block lazy); random and sparse signals, with
// ties planted across blocks; 40 updates at the window's start, inside it
// and ending at its end, some split by zero samples, and runs past the
// list's capacity; ±Inf and NaN segments.
func TestTrackedOutputsLazyMatchesEager(t *testing.T) {
	for _, c := range []struct{ n, factor, updates, segMax int }{
		{61, 1, 40, 25}, {64, 1, 40, 25}, {37, 4, 40, 25}, {50, 4, 2*listSamples/25 + 5, 25},
		{254, 4, 40, 25}, {1016, 4, 40, 25}, {700, 1, 12, 700},
	} {
		N := c.n * c.factor
		for v, variant := range []string{"finite", "inf", "nan"} {
			rng := rand.New(rand.NewPCG(uint64(N), uint64(v)))
			lens := []int{1, 2 + rng.IntN(N/2), min(97, N), N + 1}
			if N > 1000 {
				lens = []int{1, 37, 75, 97}
			}
			up, err := NewUpsamplePlan(c.n, c.factor)
			if err != nil {
				t.Fatal(err)
			}
			for _, shape := range []string{"random", "pulse"} {
				templates, sig := realTemplates(rng, lens...), up.Execute(make([]complex128, N), randComplex(c.n, uint64(N)))
				if shape == "pulse" {
					templates, sig = pulseTemplates(lens...), sparseSignal(rng, up)
				}
				_, _, o := trackedSetup(t, templates, c.n, c.factor, sig)
				plantTies(rng, o)
				e := newEagerOutputs(o)
				what := fmt.Sprintf("n=%d factor=%d %s %s", c.n, c.factor, shape, variant)
				requireEagerScans(t, o, e, nil, what+", loaded")
				for u := 0; u < c.updates; u++ {
					seg := randComplex(1+rng.IntN(min(c.segMax, c.n)), uint64(u))
					if shape == "pulse" {
						for k := range seg {
							seg[k] *= complex(30, 0)
						}
					}
					if rng.IntN(4) == 0 && len(seg) > 2 {
						seg[1+rng.IntN(len(seg)-2)] = 0
					}
					switch {
					case variant == "inf" && u == c.updates-4:
						seg[len(seg)/2] = complex(real(seg[len(seg)/2]), math.Inf(-1))
					case variant == "nan" && u == c.updates-2:
						seg[0] = complex(math.NaN(), imag(seg[0]))
					}
					var lo int
					switch u % 3 {
					case 0:
						lo = 0
					case 1:
						lo = rng.IntN(c.n - len(seg) + 1)
					default:
						lo = c.n - len(seg)
					}
					o.AddSegment(seg, lo)
					e.addSegment(seg, lo)
					requireEagerScans(t, o, e, randomSkip(rng, N), fmt.Sprintf("%s, update %d ([%d, %d))", what, u, lo, lo+len(seg)))
				}
				if variant == "finite" && N > 1000 && staleBlocks(o) == 0 {
					t.Fatalf("%s: every block is current; the scans passed over none", what)
				}
				requireEagerOutputs(t, o, e, what)
			}
		}
	}
}

// requireSameOutputs fails unless both legs hold the same output bits.
func requireSameOutputs(t testing.TB, got, want *TrackedOutputs, what string) {
	t.Helper()
	for tm := range want.out {
		if i := firstBitDiff(got.out[tm], want.out[tm]); i >= 0 {
			t.Fatalf("%s, template %d: output %d = %v on the Go loops, %v on AVX2", what, tm, i, got.out[tm][i], want.out[tm][i])
		}
	}
}

// TestTrackedOutputsBoundWindowEdges pins the bound's windows at their
// edges: on one- and three-tap templates, whose factor-1 kernels are as
// compact as kernels get, a quiet signal with one unit response holds
// the best output, and a two-chunk segment whose one nonzero sample of
// twice that amplitude sits at every offset, placed at every input
// sample, makes the output it lands on the winner. Each update runs on
// outputs restored to the loaded ones, and the scan must match the eager
// oracle: a bound whose window misses the landing output passes over the
// winner.
func TestTrackedOutputsBoundWindowEdges(t *testing.T) {
	for _, c := range []struct{ n, factor int }{{96, 1}, {100, 1}, {40, 4}, {37, 4}} {
		N := c.n * c.factor
		up, err := NewUpsamplePlan(c.n, c.factor)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(N), 5))
		x := make([]complex128, c.n)
		for i := range x {
			x[i] = complex(1e-6*rng.NormFloat64(), 1e-6*rng.NormFloat64())
		}
		x[2] = 1
		_, _, o := trackedSetup(t, [][]complex128{{1}, {0.5, 1, 0.5}}, c.n, c.factor, up.Execute(make([]complex128, N), x))
		loaded := newEagerOutputs(o)
		segLen := min(2*o.k.chunk, c.n-10)
		for lo := 8; lo+segLen <= c.n; lo++ {
			for k := range segLen {
				for tm, y := range loaded.out {
					copy(o.out[tm], y)
				}
				o.reset()
				e := newEagerOutputs(o)
				seg := make([]complex128, segLen)
				seg[k] = 2
				o.AddSegment(seg, lo)
				e.addSegment(seg, lo)
				requireEagerScans(t, o, e, nil, fmt.Sprintf("N=%d factor=%d, sample %d of [%d, %d)", N, c.factor, k, lo, lo+segLen))
			}
		}
	}
}

// TestTrackedPassOverMargin pins the scan's pass-over test against the
// rounding of a bound and of a squared magnitude: a block whose bound is
// an output's magnitude computed to within rounding (math.Hypot) is never
// passed over at that output's own squared magnitude as the best, for
// magnitudes from 2^−600, whose squares are subnormal, to 2^500.
func TestTrackedPassOverMargin(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for range 200000 {
		scale := math.Ldexp(1, -600+rng.IntN(1101))
		re, im := scale*rng.NormFloat64(), scale*rng.NormFloat64()
		if rng.IntN(8) == 0 {
			im = 0
		}
		if sq := re*re + im*im; passOver(math.Hypot(re, im), sq) {
			t.Fatalf("output %v: passed over at its own squared magnitude %v", complex(re, im), sq)
		}
	}
}

// checkTrackedLegs builds the tracked state on the AVX2 kernels and on
// the Go loops from the same inputs, updates both by every segment and
// scans both, and fails unless every kernel table, output and scan result
// agrees bit for bit, NaN bits included. Both legs bring the same blocks
// current, so their outputs agree behind the update list too; at the end
// both bring every block current.
func checkTrackedLegs(t testing.TB, templates [][]complex128, n, factor int, sig []complex128, segs [][]complex128, los []int, skip []SkipInterval, what string) {
	t.Helper()
	b, err := NewSpectralBank(templates, n*factor)
	if err != nil {
		t.Fatal(err)
	}
	up, err := NewUpsamplePlan(n, factor)
	if err != nil {
		t.Fatal(err)
	}
	g := goKernelBank(b)
	ka, err := NewOutputKernels(b, up, make([]complex128, n*factor), b.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	kg, err := NewOutputKernels(g, up, make([]complex128, n*factor), g.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if ka.avx2 != haveAVX2 || kg.avx2 {
		t.Fatalf("%s: kernels record avx2=%v and %v on a CPU with %v", what, ka.avx2, kg.avx2, haveAVX2)
	}
	for tm := range ka.g {
		for i := range ka.g[tm] {
			if math.Float64bits(ka.g[tm][i]) != math.Float64bits(kg.g[tm][i]) {
				t.Fatalf("%s, template %d: table entry %d = %v on the Go loops, %v on AVX2", what, tm, i, kg.g[tm][i], ka.g[tm][i])
			}
		}
	}
	oa, og := ka.NewOutputs(), kg.NewOutputs()
	for _, leg := range []struct {
		b *SpectralBank
		o *TrackedOutputs
	}{{b, oa}, {g, og}} {
		if err := leg.b.Ingest(sig); err != nil {
			t.Fatal(err)
		}
		if err := leg.o.Load(leg.b, leg.b.NewScratch()); err != nil {
			t.Fatal(err)
		}
	}
	requireSameOutputs(t, og, oa, what+", loaded")
	for u, seg := range segs {
		oa.AddSegment(seg, los[u])
		og.AddSegment(seg, los[u])
		requireSameOutputs(t, og, oa, fmt.Sprintf("%s, update %d", what, u))
		for tm := range templates {
			ia, sa, ya, err := oa.ScanBest(tm, skip)
			if err != nil {
				t.Fatal(err)
			}
			ig, sg, yg, err := og.ScanBest(tm, skip)
			if err != nil {
				t.Fatal(err)
			}
			if ia != ig || math.Float64bits(sa) != math.Float64bits(sg) || firstBitDiff(ya[:], yg[:]) >= 0 {
				t.Fatalf("%s, update %d, template %d: scan (%d, %v, %v) on the Go loops, (%d, %v, %v) on AVX2",
					what, u, tm, ig, sg, yg, ia, sa, ya)
			}
		}
	}
	oa.flush()
	og.flush()
	requireSameOutputs(t, og, oa, what+", brought current")
}

// realParts returns v with every imaginary part zeroed.
func realParts(v []complex128) []complex128 {
	out := make([]complex128, len(v))
	for i, c := range v {
		out[i] = complex(real(c), 0)
	}
	return out
}

// TestTrackedKernelsBitIdentical pins the tracked path's AVX2 leg (the
// transforms, tail repairs, segment updates, block catch-ups and peak
// scans on the kernels of fft_amd64.s) to its Go leg bit for bit, NaN
// bits included: edge-mix templates, signals and segments (±0,
// subnormals, 1e±300, whose sums overflow), Gaussian ones, and ±Inf
// planted in a segment, on odd and even lengths at factors 1 and 4, with
// skip intervals cutting the scanned blocks. A one-tap template keeps
// every block lazy, so on 13 and 148 outputs a partial last block of
// fewer than 8 outputs catches up through addRun's Go tail. Without AVX2
// it runs the Go leg and then skips.
func TestTrackedKernelsBitIdentical(t *testing.T) {
	for _, c := range []struct{ n, factor int }{{13, 1}, {64, 1}, {37, 4}, {254, 4}} {
		N := c.n * c.factor
		rng := rand.New(rand.NewPCG(uint64(N), 23))
		for k, mix := range []func(n int, seed uint64) []complex128{randComplex, edgeComplex} {
			templates := [][]complex128{
				realParts(mix(1+rng.IntN(9), uint64(N+k))),
				realParts(mix(min(N+1, 97), uint64(N+k+1))),
				realParts(mix(N+1, uint64(N+k+2))),
				realParts(mix(1, uint64(N+k+3))),
			}
			var segs [][]complex128
			var los []int
			for u := 0; u < 12; u++ {
				seg := mix(1+rng.IntN(min(25, c.n)), uint64(100*N+u))
				if u == 5 {
					seg[0] = complex(math.Inf(1), imag(seg[0]))
				}
				segs = append(segs, seg)
				los = append(los, rng.IntN(c.n-len(seg)+1))
			}
			skip := []SkipInterval{{Lo: 2, Hi: 5}, {Lo: N / 2, Hi: N/2 + 3}, {Lo: N - 3, Hi: N + 4}}
			checkTrackedLegs(t, templates, c.n, c.factor, mix(N, uint64(7*N+k)), segs, los, skip,
				fmt.Sprintf("n=%d factor=%d inputs %d", c.n, c.factor, k))
		}
	}
	if !haveAVX2 {
		t.Skip("CPU without AVX2: ran the Go leg only")
	}
}

// FuzzTrackedOutputs updates tracked outputs on fuzzed real templates by
// fuzzed segments at fuzzed positions, on a fuzzed input length up to 64
// at factor 1 or 4, and requires what TestTrackedOutputsMatchIngest,
// TestTrackedOutputsLazyMatchesEager and TestTrackedKernelsBitIdentical
// require: outputs within 1e-12 of the output scale of a fresh filter, the
// lazy update's scans (under a fuzzed skip interval) and outputs
// bit-identical to the eager oracle's, and both legs bit-identical.
// Components outside moderate's range are skipped.
func FuzzTrackedOutputs(f *testing.F) {
	f.Add(uint8(40), true, uint8(3), bytes.Repeat(fuzzSample, 5), bytes.Repeat(fuzzSample, 3))
	f.Add(uint8(7), false, uint8(0), fuzzSample, fuzzSample)
	f.Add(uint8(63), true, uint8(200), bytes.Repeat(fuzzSample, 40), bytes.Repeat(fuzzSample, 9))
	f.Fuzz(func(t *testing.T, inLen uint8, four bool, pos uint8, tmplData, segData []byte) {
		n := 1 + int(inLen)%64
		factor := 1
		if four {
			factor = 4
		}
		N := n * factor
		taps := fuzzTaps(tmplData, len(tmplData)/16)
		seg := fuzzTaps(segData, len(segData)/16)
		if taps == nil || seg == nil || !moderate(taps) || !moderate(seg) {
			t.Skip()
		}
		taps = realParts(taps)
		if len(taps) > N+1 {
			taps = taps[:N+1]
		}
		if len(seg) > n {
			seg = seg[:n]
		}
		templates := [][]complex128{taps, realParts(seg)}
		rng := rand.New(rand.NewPCG(uint64(pos), uint64(N)))
		sig := make([]complex128, N)
		up, err := NewUpsamplePlan(n, factor)
		if err != nil {
			t.Fatal(err)
		}
		up.Execute(sig, randComplex(n, uint64(pos)))
		_, _, lazy := trackedSetup(t, templates, n, factor, sig)
		eager := newEagerOutputs(lazy)
		skip := []SkipInterval{{Lo: int(pos) % N, Hi: int(pos)%N + int(inLen)%19}}
		b, _, o := trackedSetup(t, templates, n, factor, sig)
		var segs [][]complex128
		var los []int
		for u := 0; u < 4; u++ {
			lo := (int(pos) + 7*u) % (n - len(seg) + 1)
			up.AddSegment(sig, seg, lo)
			o.AddSegment(seg, lo)
			requireFreshOutputs(t, b, o, sig, 1e-12, fmt.Sprintf("update %d", u))
			segs, los = append(segs, seg), append(los, lo)
			seg = randComplex(1+rng.IntN(n), uint64(u))
		}
		for u, seg := range segs {
			lazy.AddSegment(seg, los[u])
			eager.addSegment(seg, los[u])
			requireEagerScans(t, lazy, eager, skip, fmt.Sprintf("update %d", u))
		}
		requireEagerOutputs(t, lazy, eager, "fuzz")
		checkTrackedLegs(t, templates, n, factor, sig, segs, los, []SkipInterval{{Lo: 1, Hi: 2}}, "fuzz")
	})
}

// moderate reports whether every component of v is zero or between
// 1e-150 and 1e150 in magnitude, so products of two stay finite and the
// output scale stays clear of the subnormals, whose spacing no relative
// bound survives.
func moderate(v []complex128) bool {
	for _, c := range v {
		for _, x := range []float64{math.Abs(real(c)), math.Abs(imag(c))} {
			if x != 0 && (x < 1e-150 || x > 1e150) {
				return false
			}
		}
	}
	return true
}

// BenchmarkTrackedUpdate times the tracked path's per-round unit for the
// detector's museum session, one update plus one scan per template, on
// the lazy update and on the eager oracle: three pulse-like real
// templates of 37, 75 and 97 taps on the 4× up-sampled 1016-tap CIR,
// loaded from a sparse signal, and each update a pulse of 11, 20 or 25
// samples at one of 28 spread positions. Every 28 rounds, a Detect's
// worth, the loaded outputs are restored (and, lazily, recorded, as Load
// does). It reports the blocks brought current per update, which is
// every block of every template on the eager path.
func BenchmarkTrackedUpdate(bm *testing.B) {
	const rounds = 28
	rng := rand.New(rand.NewPCG(1, 2))
	templates := pulseTemplates(37, 75, 97)
	up, err := NewUpsamplePlan(1016, 4)
	if err != nil {
		bm.Fatal(err)
	}
	sig := sparseSignal(rng, up)
	los := make([]int, rounds)
	for i := range los {
		los[i] = rng.IntN(1016 - 25)
	}
	for _, segLen := range []int{11, 20, 25} {
		seg := realParts(pulseTemplates(segLen)[0])
		for k := range seg {
			seg[k] *= complex(50*float64(1-2*(k%2)), 0)
		}
		for _, path := range []string{"lazy", "eager"} {
			bm.Run(fmt.Sprintf("seg%d/%s", segLen, path), func(bb *testing.B) {
				_, _, o := trackedSetup(bb, templates, 1016, 4, sig)
				e := newEagerOutputs(o)
				loaded := newEagerOutputs(o)
				caught := 0
				bb.ResetTimer()
				for i := 0; i < bb.N; i++ {
					if i%rounds == 0 {
						for tm, y := range loaded.out {
							copy(o.out[tm], y)
							copy(e.out[tm], y)
						}
						if path == "lazy" {
							o.reset()
						}
					}
					lo := los[i%rounds]
					if path == "lazy" {
						o.AddSegment(seg, lo)
						for tm := range templates {
							o.ScanBest(tm, nil)
						}
						continue
					}
					e.addSegment(seg, lo)
					for tm := range templates {
						e.scanBest(tm, nil)
					}
					caught += len(templates) * blocks(4064)
				}
				if path == "lazy" {
					caught = int(o.caughtUp)
				}
				bb.ReportMetric(float64(caught)/float64(bb.N), "blocks/update")
			})
		}
	}
}

// BenchmarkNewOutputKernels times the detector's set-up of the tracked
// path for the museum session: the kernels of three real templates of 37,
// 75 and 97 taps on the 4× up-sampled 1016-tap CIR, built in caller
// buffers, plus one detector's outputs. Its B/op is the path's memory.
func BenchmarkNewOutputKernels(bm *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	b, err := NewSpectralBank(realTemplates(rng, 37, 75, 97), 4064)
	if err != nil {
		bm.Fatal(err)
	}
	up, err := NewUpsamplePlan(1016, 4)
	if err != nil {
		bm.Fatal(err)
	}
	sig, scratch := make([]complex128, 4064), b.NewScratch()
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		k, err := NewOutputKernels(b, up, sig, scratch)
		if err != nil {
			bm.Fatal(err)
		}
		k.NewOutputs()
	}
}
