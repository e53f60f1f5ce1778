package dsp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// This file checks TrackedOutputs: its maintained outputs against a fresh
// Ingest and filter of the up-sampled signal AddSegment maintains, and its
// AVX2 leg against its Go leg bit for bit.

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

// requireFreshOutputs fails unless o's outputs equal a fresh Ingest and
// filter of sig on b within tol of the output scale ‖c_t‖₁·max|sig|, the
// largest magnitude an output can reach. A transform's rounding error
// scales with it, not with the largest output: a tap that multiplies the
// signal's largest sample in no output still rounds every output.
func requireFreshOutputs(t testing.TB, b *SpectralBank, o *TrackedOutputs, sig []complex128, tol float64, what string) {
	t.Helper()
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

// goKernelOutputs returns outputs on a copy of o's kernels that runs the
// Go loops, holding o's outputs.
func goKernelOutputs(o *TrackedOutputs) *TrackedOutputs {
	k := *o.k
	k.avx2 = false
	g := k.NewOutputs()
	for t := range o.out {
		copy(g.out[t], o.out[t])
	}
	return g
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

// checkTrackedLegs builds the tracked state on the AVX2 kernels and on
// the Go loops from the same inputs, updates both by every segment and
// scans both, and fails unless every kernel table, output and scan result
// agrees bit for bit, NaN bits included.
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
// transforms, tail repairs, segment updates and peak scans on the kernels
// of fft_amd64.s) to its Go leg bit for bit, NaN bits included: edge-mix
// templates, signals and segments (±0, subnormals, 1e±300, whose sums
// overflow), Gaussian ones, and ±Inf planted in a segment, on odd and
// even lengths at factors 1 and 4, with skip intervals cutting the scan.
// Without AVX2 it runs the Go leg and then skips.
func TestTrackedKernelsBitIdentical(t *testing.T) {
	for _, c := range []struct{ n, factor int }{{13, 1}, {64, 1}, {37, 4}, {254, 4}} {
		N := c.n * c.factor
		rng := rand.New(rand.NewPCG(uint64(N), 23))
		for k, mix := range []func(n int, seed uint64) []complex128{randComplex, edgeComplex} {
			templates := [][]complex128{
				realParts(mix(1+rng.IntN(9), uint64(N+k))),
				realParts(mix(min(N+1, 97), uint64(N+k+1))),
				realParts(mix(N+1, uint64(N+k+2))),
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
// at factor 1 or 4, and requires what TestTrackedOutputsMatchIngest and
// TestTrackedKernelsBitIdentical require: outputs within 1e-12 of the
// output scale of a fresh filter, and both legs bit-identical. Components
// outside moderate's range are skipped.
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

// BenchmarkTrackedUpdate times TrackedOutputs.AddSegment on the Go loops
// and the AVX2 kernels for the detector's museum session: three real
// templates of 37, 75 and 97 taps on the 4× up-sampled 1016-tap CIR, one
// update per subtracted pulse rendered as 11, 20 or 25 samples.
func BenchmarkTrackedUpdate(bm *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	templates := realTemplates(rng, 37, 75, 97)
	sig := make([]complex128, 4064)
	_, _, o := trackedSetup(bm, templates, 1016, 4, sig)
	g := goKernelOutputs(o)
	for _, segLen := range []int{11, 20, 25} {
		seg := randComplex(segLen, uint64(segLen))
		for _, k := range kernelNames() {
			out := o
			if k == "go" {
				out = g
			}
			bm.Run(fmt.Sprintf("seg%d/%s", segLen, k), func(bb *testing.B) {
				for i := 0; i < bb.N; i++ {
					out.AddSegment(seg, 500)
				}
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
