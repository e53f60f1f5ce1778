package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"slices"
	"testing"
)

// frameOracle returns every output of template t as the frame that owns it
// computes it: a fresh F-point product transform of the frame's input and
// the template's spectrum per frame, each output scaled by 1/F component
// by component. It is FrameBank's definition, read off the transform
// directly.
func frameOracle(b *FrameBank, sig []complex128, t int) []complex128 {
	out := make([]complex128, len(sig))
	spec := make([]complex128, b.n)
	prod := make([]complex128, b.n)
	s := 1 / float64(b.n)
	for lo := 0; lo < len(sig); lo += b.hop {
		b.plan.spectrumRev(spec, sig[lo:min(lo+b.n, len(sig))])
		b.plan.productTransformPermuted(prod, b.tmpls[t].specRev, spec, b.plan.inv)
		for i := lo; i < min(lo+b.hop, len(sig)); i++ {
			out[i] = scaled(prod[i-lo+b.tmpls[t].start], s)
		}
	}
	return out
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
// outputs under random skip intervals, its y3 holds the frame's own
// neighbours and EdgeNeighbours the others, each from the frame that
// owns it. No output's squared magnitude exceeds its frame's key, the
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
			for tm, tmpl := range c.templates {
				ys[tm] = frameOracle(b, c.sig, tm)
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
					idx, sq, y3, err := b.ScanFrame(scratch, tm, skip)
					if err != nil {
						t.Fatal(err)
					}
					wantIdx, wantSq := refFrameScan(y, lo, hi, skip)
					if idx != wantIdx || math.Float64bits(sq) != math.Float64bits(wantSq) {
						t.Fatalf("%s, frame %d, template %d, skip %v: scan (%d, %v), want (%d, %v)", label, f, tm, skip, idx, sq, wantIdx, wantSq)
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
			requireFrameKeys(t, fmt.Sprintf("L=%d copy at %d", l, at), b, [][]complex128{frameOracle(b, sig, 0)})
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
			if _, _, _, err := fb.ScanFrame(scratch, i%len(tmpls), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
