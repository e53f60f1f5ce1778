package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// frameOracle returns every output of template t as the frame that owns it
// computes it: a fresh F-point product transform of the frame's input and
// the template's spectrum per frame, each output scaled by 1/F component
// by component. It is FrameBank's definition, read off the transform
// directly. It also returns, per frame, the largest squared magnitude over
// every unwrapped output of the frame's product, [fH, min(fH+F−L_t+1, N)),
// NaN never winning: ScanFrame's peak.
func frameOracle(b *FrameBank, sig []complex128, t int) ([]complex128, []float64) {
	out := make([]complex128, len(sig))
	peaks := make([]float64, b.Frames())
	spec := make([]complex128, b.n)
	prod := make([]complex128, b.n)
	s := 1 / float64(b.n)
	start := b.tmpls[t].start
	for lo := 0; lo < len(sig); lo += b.hop {
		b.plan.spectrumRev(spec, sig[lo:min(lo+b.n, len(sig))])
		b.plan.productTransformPermuted(prod, b.tmpls[t].specRev, spec, b.plan.inv)
		for i := lo; i < min(lo+b.hop, len(sig)); i++ {
			out[i] = scaled(prod[i-lo+start], s)
		}
		for _, v := range prod[start:min(b.n, start+len(sig)-lo)] {
			if sq := sqOf(scaled(v, s)); sq > peaks[lo/b.hop] {
				peaks[lo/b.hop] = sq
			}
		}
	}
	return out, peaks
}

// directOutputs returns y[i] = Σ_k sig[i+k]·conj(tmpl[k]), sig zero past
// its end.
func directOutputs(sig, tmpl []complex128) []complex128 {
	y := make([]complex128, len(sig))
	for i := range y {
		for k, c := range tmpl {
			if i+k < len(sig) {
				y[i] += sig[i+k] * cmplx.Conj(c)
			}
		}
	}
	return y
}

func sqOf(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

// refFrameScan returns the first index of the largest squared magnitude
// of y over [lo, hi) outside the skip intervals, strict > from 0, or −1.
func refFrameScan(y []complex128, lo, hi int, skip []SkipInterval) (int, float64) {
	idx, best := -1, 0.0
	for i := lo; i < hi; i++ {
		if slices.ContainsFunc(skip, func(iv SkipInterval) bool { return iv.Lo <= i && i <= iv.Hi }) {
			continue
		}
		if sq := sqOf(y[i]); sq > best {
			idx, best = i, sq
		}
	}
	return idx, best
}

// randSkip returns up to four ascending, disjoint inclusive intervals
// over [−5, n+5).
func randSkip(r *rand.Rand, n int) []SkipInterval {
	var cuts []int
	for range 2 * r.IntN(5) {
		cuts = append(cuts, r.IntN(n+10)-5)
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	var skip []SkipInterval
	for i := 0; i+1 < len(cuts); i += 2 {
		skip = append(skip, SkipInterval{Lo: cuts[i], Hi: cuts[i+1]})
	}
	return skip
}

func randTaps(r *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return v
}

type frameCase struct {
	name      string
	templates [][]complex128
	sig       []complex128
	finite    bool // no ±Inf or NaN anywhere, no overflow: compare with the direct sums
}

// frameCases builds template banks and signals for the frame tests:
// Gaussian and pulse-train signals, a template held twice, frame inputs
// repeated on another frame (exact ties across frames), ±Inf, NaN and
// squares that overflow, on hops aligned and not aligned with the
// 16-sample blocks, and signals from one sample to the up-sampled CIR.
func frameCases(seed uint64) []frameCase {
	r := rand.New(rand.NewPCG(seed, 71))
	var cases []frameCase
	for _, lens := range [][]int{{1}, {18, 7}, {50, 50, 33}, {100, 5}, {113, 61, 113}, {114, 1, 80}} {
		tmpls := make([][]complex128, len(lens))
		for i, l := range lens {
			tmpls[i] = randTaps(r, l)
		}
		if len(lens) == 3 {
			tmpls[2] = tmpls[0] // one template held twice
		}
		for _, n := range []int{1, 5, 37, 300, 1016, 4064} {
			name := fmt.Sprintf("L=%v n=%d", lens, n)
			gauss := randTaps(r, n)
			cases = append(cases, frameCase{name + " gaussian", tmpls, gauss, true})
			// Copies of one template at random positions, some on frame
			// edges, over weak noise.
			b, _ := NewFrameBank(tmpls, n)
			train := make([]complex128, n)
			for i := range train {
				train[i] = 1e-3 * gauss[i]
			}
			for range 1 + r.IntN(4) {
				tm := tmpls[r.IntN(len(tmpls))]
				at := r.IntN(n)
				if r.IntN(2) == 0 {
					at = min(n-1, b.hop*r.IntN(b.Frames())+r.IntN(3)-1)
					at = max(at, 0)
				}
				a := complex(r.NormFloat64(), r.NormFloat64())
				for k, c := range tm {
					if at+k < n {
						train[at+k] += a * c
					}
				}
			}
			cases = append(cases, frameCase{name + " train", tmpls, train, true})
			// The same input on two frames: their outputs tie exactly, and
			// on hops the blocks do not divide their keys may differ.
			if b.Frames() >= 3 {
				rep := make([]complex128, n)
				for k := range b.hop - 1 {
					rep[k] = gauss[k]
					if j := 2*b.hop + k; j < n {
						rep[j] = gauss[k]
					}
				}
				cases = append(cases, frameCase{name + " repeated", tmpls, rep, false})
			}
			huge := make([]complex128, n)
			for i, v := range train {
				huge[i] = v * 1e160
			}
			cases = append(cases, frameCase{name + " overflow", tmpls, huge, false})
			if n >= 37 {
				inf := slices.Clone(gauss)
				inf[r.IntN(n)] = complex(math.Inf(1), 0)
				cases = append(cases, frameCase{name + " inf", tmpls, inf, false})
				nan := slices.Clone(gauss)
				nan[r.IntN(n)] = complex(0, math.NaN())
				cases = append(cases, frameCase{name + " nan", tmpls, nan, false})
			}
		}
	}
	return cases
}

// TestFrameBankScanBitIdentical pins every frame scan to the frame
// definition (frameOracle) bit for bit, NaN bits included: the index and
// squared magnitude ScanFrame returns are refFrameScan's over the frame's
// outputs under random skip intervals, its peak the largest over the
// frame's unwrapped outputs, its y3 holds the frame's own neighbours and
// EdgeNeighbours the others, each from the frame that owns it. No
// output's squared magnitude exceeds its frame's key, the
// order is by descending key, and on finite signals the frame outputs
// equal the direct sums up to rounding, so each frame's geometry (hop,
// offsets, zero padding) holds. It runs on the kernels' leg and, on an
// AVX2 CPU, on the Go loops too.
func TestFrameBankScanBitIdentical(t *testing.T) {
	legs := []bool{false}
	if haveAVX2 {
		legs = append(legs, true)
	}
	r := rand.New(rand.NewPCG(5, 72))
	for _, avx2 := range legs {
		for _, c := range frameCases(1) {
			b, err := NewFrameBank(c.templates, len(c.sig))
			if err != nil {
				t.Fatal(err)
			}
			p := *b.plan
			p.avx2 = avx2
			b.plan = &p
			label := fmt.Sprintf("%s, avx2 %v", c.name, avx2)
			if err := b.Load(c.sig); err != nil {
				t.Fatal(err)
			}
			ys := make([][]complex128, len(c.templates))
			peaks := make([][]float64, len(c.templates))
			for tm, tmpl := range c.templates {
				ys[tm], peaks[tm] = frameOracle(b, c.sig, tm)
				if !c.finite {
					continue
				}
				tol := 1e-12 * math.Sqrt(energyOf(c.sig)*energyOf(tmpl))
				for i, v := range directOutputs(c.sig, tmpl) {
					if cmplx.Abs(ys[tm][i]-v) > tol {
						t.Fatalf("%s: template %d output %d = %v, direct sum %v", label, tm, i, ys[tm][i], v)
					}
				}
			}
			requireFrameKeys(t, label, b, ys)
			scratch := b.NewScratch()
			for f := range b.Frames() {
				lo, hi := f*b.hop, min((f+1)*b.hop, len(c.sig))
				for tm, y := range ys {
					skip := randSkip(r, len(c.sig))
					if err := b.Ingest(f); err != nil {
						t.Fatal(err)
					}
					peak := math.NaN()
					idx, sq, y3, err := b.ScanFrame(scratch, tm, skip, &peak)
					if err != nil {
						t.Fatal(err)
					}
					wantIdx, wantSq := refFrameScan(y, lo, hi, skip)
					if idx != wantIdx || math.Float64bits(sq) != math.Float64bits(wantSq) {
						t.Fatalf("%s, frame %d, template %d, skip %v: scan (%d, %v), want (%d, %v)", label, f, tm, skip, idx, sq, wantIdx, wantSq)
					}
					if math.Float64bits(peak) != math.Float64bits(peaks[tm][f]) {
						t.Fatalf("%s, frame %d, template %d: peak %v, want %v", label, f, tm, peak, peaks[tm][f])
					}
					if idx < 0 {
						continue
					}
					var want [3]complex128
					for k := range want {
						if i := idx - 1 + k; i >= lo && i < hi {
							want[k] = y[i]
						}
					}
					requireSameY3(t, fmt.Sprintf("%s, frame %d, template %d: frame's y3", label, f, tm), y3, want)
					if err := b.EdgeNeighbours(scratch, tm, idx, &y3); err != nil {
						t.Fatal(err)
					}
					for k := range want {
						if i := idx - 1 + k; i >= 0 && i < len(y) {
							want[k] = y[i]
						}
					}
					requireSameY3(t, fmt.Sprintf("%s, frame %d, template %d: y3 with edges", label, f, tm), y3, want)
				}
			}
		}
	}
}

func energyOf(v []complex128) float64 {
	e := 0.0
	for _, c := range v {
		e += sqOf(c)
	}
	return e
}

func requireSameY3(t *testing.T, label string, got, want [3]complex128) {
	t.Helper()
	for k := range got {
		if math.Float64bits(real(got[k])) != math.Float64bits(real(want[k])) ||
			math.Float64bits(imag(got[k])) != math.Float64bits(imag(want[k])) {
			t.Fatalf("%s: %v, want %v", label, got, want)
		}
	}
}

// requireFrameKeys checks Load's bound and order against the frame
// outputs ys: no output's squared magnitude exceeds its frame's key, so
// a frame whose key is below a best holds nothing that reaches it, and
// Order lists the frames by descending key, NaN first, ties by index.
func requireFrameKeys(t *testing.T, label string, b *FrameBank, ys [][]complex128) {
	t.Helper()
	for f := range b.Frames() {
		key := b.keys[f]
		for tm, y := range ys {
			for i := f * b.hop; i < min((f+1)*b.hop, len(y)); i++ {
				if sq := sqOf(y[i]); sq > key {
					t.Fatalf("%s: template %d output %d: |y|² = %v above frame %d's key %v", label, tm, i, sq, f, key)
				}
			}
		}
	}
	order := b.Order()
	if len(order) != b.Frames() {
		t.Fatalf("%s: order of %d frames, want %d", label, len(order), b.Frames())
	}
	seen := make([]bool, len(order))
	for j, f := range order {
		if seen[f] {
			t.Fatalf("%s: frame %d ordered twice", label, f)
		}
		seen[f] = true
		if j == 0 {
			continue
		}
		g := order[j-1]
		kf, kg := sortKey(b.keys[f]), sortKey(b.keys[g])
		if kg < kf || kg == kf && g > f {
			t.Fatalf("%s: frame %d (key %v) ordered after frame %d (key %v)", label, f, b.keys[f], g, b.keys[g])
		}
	}
}

// shiftFamily returns templates of the given lengths that each hold the
// two-tap pulse p at their center c = (L−1)/2, zero elsewhere: every
// template is any shorter one shifted by the difference of their centers,
// so each member's distance to its representative is 0.
func shiftFamily(p [2]complex128, lens []int) [][]complex128 {
	tmpls := make([][]complex128, len(lens))
	for i, l := range lens {
		tmpls[i] = make([]complex128, l)
		c := (l - 1) / 2
		tmpls[i][c] = p[0]
		if c+1 < l {
			tmpls[i][c+1] = p[1]
		}
	}
	return tmpls
}

// familyCases builds banks on which the family bound is tight, each
// template a neighbour of the next, and signals that probe each of its
// terms:
//   - a shift family (shiftFamily, members at distance 0, a shape held
//     twice) on e^{iθn}, which its pulse annihilates, so every exact
//     output is 0 and the computed outputs are the transforms' rounding,
//     which only the 2ε_f term covers;
//   - the shift family on copies of its pulse at and just after frame
//     starts, over weak noise: a member's output at the end of a frame
//     pairs with the representative's peak past the frame's own outputs;
//   - centered unit-energy Gaussian pulses whose width grows with the
//     length (members at small nonzero distances, the last shape held
//     twice) on Gaussian noise and on trains of copies.
func familyCases(seed uint64) []frameCase {
	r := rand.New(rand.NewPCG(seed, 75))
	theta := 2 * math.Pi * r.Float64()
	p := [2]complex128{complex(math.Sqrt(0.5), 0), -cmplx.Rect(math.Sqrt(0.5), theta)}
	shift := shiftFamily(p, []int{5, 2, 2, 3, 40, 2, 6, 3, 33, 2})
	var near [][]complex128
	for _, l := range []int{20, 23, 26, 28, 31, 35, 38, 40, 43, 47, 50, 52, 55, 59, 62, 62} {
		tm := make([]complex128, l)
		c, w := float64(l-1)/2, float64(l)/6
		for k := range tm {
			tm[k] = cmplx.Rect(math.Exp(-(float64(k)-c)*(float64(k)-c)/(w*w)), 0.3*float64(k))
		}
		near = append(near, NormalizeEnergy(tm))
	}
	var cases []frameCase
	for _, n := range []int{300, 1016, 4064} {
		name := fmt.Sprintf("n=%d", n)
		rot := make([]complex128, n)
		for i := range rot {
			rot[i] = cmplx.Rect(1, theta*float64(i))
		}
		cases = append(cases, frameCase{name + " shift family, annihilated", shift, rot, true})
		b, _ := NewFrameBank(shift, n)
		edges := randTaps(r, n)
		for i := range edges {
			edges[i] *= 1e-3
		}
		for k := 1; k < b.Frames(); k += 2 {
			at := k*b.hop + r.IntN(20)
			a := complex(r.NormFloat64(), r.NormFloat64())
			for j, v := range p {
				if at+j < n {
					edges[at+j] += a * v
				}
			}
		}
		cases = append(cases, frameCase{name + " shift family, frame starts", shift, edges, true})
		gauss := randTaps(r, n)
		cases = append(cases, frameCase{name + " gaussian pulses, noise", near, gauss, true})
		train := make([]complex128, n)
		for i := range train {
			train[i] = 1e-4 * gauss[i]
		}
		for range 1 + n/200 {
			tm := near[r.IntN(len(near))]
			at := r.IntN(n)
			a := complex(r.NormFloat64(), r.NormFloat64())
			for k, c := range tm {
				if at+k < n {
					train[at+k] += a * c
				}
			}
		}
		cases = append(cases, frameCase{name + " gaussian pulses, train", near, train, true})
	}
	return cases
}

// requireGroups checks the bank's groups: ⌈√n⌉ consecutive templates
// each, the representative the first shortest of its group, and every
// member's distance the norm of its difference from the representative
// centered on it, d_t = ‖s_t[k] − s_r[k − Δ_t]‖₂ with Δ_t = (L_t−1)/2 −
// (L_r−1)/2, rounded up by at most a few units in the last place.
func requireGroups(t *testing.T, label string, b *FrameBank, templates [][]complex128) {
	t.Helper()
	size := int(math.Ceil(math.Sqrt(float64(len(templates)))))
	if want := (len(templates) + size - 1) / size; len(b.Representatives()) != want {
		t.Fatalf("%s: %d groups of %d templates, want %d", label, len(b.Representatives()), len(templates), want)
	}
	for g, r := range b.Representatives() {
		lo, hi := g*size, min((g+1)*size, len(templates))
		want := lo
		for tm := lo; tm < hi; tm++ {
			if len(templates[tm]) < len(templates[want]) {
				want = tm
			}
		}
		if int(r) != want {
			t.Fatalf("%s: group %d represented by template %d, want %d", label, g, r, want)
		}
		sr := templates[r]
		for tm := lo; tm < hi; tm++ {
			if b.tmpls[tm].group != int32(g) {
				t.Fatalf("%s: template %d in group %d, want %d", label, tm, b.tmpls[tm].group, g)
			}
			if tm == int(r) {
				continue
			}
			st := templates[tm]
			shifted := make([]complex128, len(st))
			copy(shifted[(len(st)-1)/2-(len(sr)-1)/2:], sr)
			e := 0.0
			for k := range st {
				e += sqOf(st[k] - shifted[k])
			}
			if d := b.tmpls[tm].dist; !(d >= math.Sqrt(e) && d <= math.Sqrt(e)*(1+0x1p-40)+0x1p-1000) {
				t.Fatalf("%s: template %d at distance %v from template %d, want %v rounded up", label, tm, d, r, math.Sqrt(e))
			}
		}
	}
}

// TestFrameFamilyBound: on every bank and signal of the frame tests
// (frameCases: 1–114 taps in non-monotone order, a shape held twice,
// ±Inf, NaN and squares that overflow) and on the tight banks of
// familyCases, Members never passes over a member whose outputs on the
// frame reach the best: for every frame and member, with the best set to
// the largest squared magnitude of the member's own outputs on the frame,
// the member is listed, and a member whose outputs hold a NaN is listed at
// any best. The groups are as built (requireGroups), the shift family's
// members are at distance 0 from their representatives (rounded up to the
// smallest subnormal), and at the
// largest output of the whole signal the tight banks pass members over.
func TestFrameFamilyBound(t *testing.T) {
	passed := 0
	for _, c := range append(frameCases(1), familyCases(2)...) {
		b, err := NewFrameBank(c.templates, len(c.sig))
		if err != nil {
			t.Fatal(err)
		}
		requireGroups(t, c.name, b, c.templates)
		if err := b.Load(c.sig); err != nil {
			t.Fatal(err)
		}
		ys := make([][]complex128, len(c.templates))
		top := 0.0
		for tm := range c.templates {
			ys[tm], _ = frameOracle(b, c.sig, tm)
			_, m := refFrameScan(ys[tm], 0, len(c.sig), nil)
			top = max(top, m)
		}
		reps := b.Representatives()
		repPeaks := make([]float64, len(reps))
		scratch := b.NewScratch()
		for f := range b.Frames() {
			if err := b.Ingest(f); err != nil {
				t.Fatal(err)
			}
			for g, r := range reps {
				if _, _, _, err := b.ScanFrame(scratch, int(r), nil, &repPeaks[g]); err != nil {
					t.Fatal(err)
				}
			}
			lo, hi := f*b.hop, min((f+1)*b.hop, len(c.sig))
			for tm, y := range ys {
				if slices.Contains(reps, int32(tm)) {
					continue
				}
				if strings.Contains(c.name, "shift family") && b.tmpls[tm].dist > math.SmallestNonzeroFloat64 {
					t.Fatalf("%s: template %d, a shifted copy of its representative, at distance %v", c.name, tm, b.tmpls[tm].dist)
				}
				_, m := refFrameScan(y, lo, hi, nil)
				bests := []float64{m}
				if slices.ContainsFunc(y[lo:hi], cmplx.IsNaN) {
					bests = append(bests, math.MaxFloat64, math.Inf(1))
				}
				for _, best := range bests {
					if !slices.Contains(b.Members(nil, repPeaks, best), int32(tm)) {
						t.Fatalf("%s, frame %d: template %d passed over below %v, its outputs reach %v (representative peaks %v)", c.name, f, tm, best, m, repPeaks)
					}
				}
			}
			if strings.Contains(c.name, "family") || strings.Contains(c.name, "pulses") {
				passed += len(c.templates) - len(reps) - len(b.Members(nil, repPeaks, top))
			}
		}
	}
	if passed == 0 {
		t.Fatal("the tight banks passed no member over at the signal's largest output: the checks show nothing")
	}
	t.Logf("%d (member, frame) pairs of the tight banks passed over", passed)
}

// TestFrameBoundTight puts a scaled copy of one template in an otherwise
// empty signal, so that the template's output at the copy equals the
// Cauchy–Schwarz bound in exact arithmetic, at every offset within a
// 16-sample block and on every frame. The computed output may round
// above the computed window energy times E_s, which the key's margin
// covers; the window's last sample ends the reach of an output in a
// block's last position, so a reach one sample short loses it. Template
// lengths 18 and 114 put that sample first in a block.
func TestFrameBoundTight(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 73))
	for _, l := range []int{18, 50, 113, 114} {
		tmpl := randTaps(r, l)
		const n = 1016
		b, err := NewFrameBank([][]complex128{tmpl}, n)
		if err != nil {
			t.Fatal(err)
		}
		for at := 0; at+l <= n; at += 1 + r.IntN(7) {
			sig := make([]complex128, n)
			a := complex(r.NormFloat64(), r.NormFloat64()) * complex(math.Ldexp(1, r.IntN(40)-20), 0)
			for k, c := range tmpl {
				sig[at+k] = a * c
			}
			if err := b.Load(sig); err != nil {
				t.Fatal(err)
			}
			y, _ := frameOracle(b, sig, 0)
			requireFrameKeys(t, fmt.Sprintf("L=%d copy at %d", l, at), b, [][]complex128{y})
		}
	}
}

// TestFrameBankGeometry pins the frame grid: F = NextPow2(2·L_max),
// H = F − (L_max − 1) and ⌈N/H⌉ frames, for the 4×- and 8×-up-sampled
// 1016-tap CIR on the 108-shape bank's longest templates.
func TestFrameBankGeometry(t *testing.T) {
	for _, c := range []struct{ longest, sigLen, f, h, frames int }{
		{113, 4064, 256, 144, 29},
		{225, 8128, 512, 288, 29},
		{1, 7, 2, 2, 4},
		{64, 1, 128, 65, 1},
	} {
		b, err := NewFrameBank([][]complex128{make([]complex128, c.longest), {1}}, c.sigLen)
		if err != nil {
			t.Fatal(err)
		}
		if b.n != c.f || b.hop != c.h || b.Frames() != c.frames {
			t.Errorf("L_max %d, N %d: F %d, H %d, %d frames; want %d, %d, %d", c.longest, c.sigLen, b.n, b.hop, b.Frames(), c.f, c.h, c.frames)
		}
	}
	for _, bad := range []struct {
		templates [][]complex128
		n         int
	}{{nil, 10}, {[][]complex128{{1}}, 0}, {[][]complex128{{1}, {}}, 10}} {
		if _, err := NewFrameBank(bad.templates, bad.n); err == nil {
			t.Errorf("templates %v on %d samples accepted", bad.templates, bad.n)
		}
	}
}

// BenchmarkFrameSearch times the frame search's parts on the 4×-up-sampled
// 1016-tap CIR with 108 templates of up to 113 samples: the bound pass
// over the signal (Load), one frame's ingest, and one template's scan of
// it.
func BenchmarkFrameSearch(b *testing.B) {
	r := rand.New(rand.NewPCG(3, 74))
	tmpls := make([][]complex128, 108)
	for i := range tmpls {
		tmpls[i] = randTaps(r, 37+i*76/107)
	}
	sig := randTaps(r, 4064)
	fb, err := NewFrameBank(tmpls, len(sig))
	if err != nil {
		b.Fatal(err)
	}
	scratch := fb.NewScratch()
	b.Run("bound", func(b *testing.B) {
		for range b.N {
			if err := fb.Load(sig); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ingest", func(b *testing.B) {
		for i := range b.N {
			fb.cur = -1
			if err := fb.Ingest(i % fb.Frames()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := range b.N {
			if _, _, _, err := fb.ScanFrame(scratch, i%len(tmpls), nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
