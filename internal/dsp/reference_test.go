package dsp

import (
	"math"
	"math/bits"
)

// This file holds the unplanned transforms the production plans are
// pinned against: a textbook iterative radix-2 FFT that recomputes its
// bit-reversal and twiddles per call, Bluestein's algorithm on top of it
// for other lengths, FFT up-sampling, the term-by-term segment update,
// the per-sample peak scan, and direct/FFT convolution. The plans
// precompute exactly the tables these recurrences generate and keep the
// butterfly order, so every equalExact pin compares bit for bit.

// refFFT returns the DFT of v as a new slice.
func refFFT(v []complex128) []complex128 {
	out := Clone(v)
	refTransform(out, false)
	return out
}

// refIFFT returns the inverse DFT of v (including the 1/N normalization)
// as a new slice.
func refIFFT(v []complex128) []complex128 {
	out := Clone(v)
	refTransform(out, true)
	return out
}

func refTransform(v []complex128, inverse bool) {
	n := len(v)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		refRadix2(v, inverse)
	} else {
		refBluestein(v, inverse)
	}
	if inverse {
		Scale(v, complex(1/float64(n), 0))
	}
}

// refRadix2 runs an in-place iterative Cooley–Tukey FFT. len(v) must be a
// power of two.
func refRadix2(v []complex128, inverse bool) {
	n := len(v)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			v[i], v[j] = v[j], v[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wBase := complex(math.Cos(step), math.Sin(step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := v[start+k]
				b := v[start+k+half] * w
				v[start+k] = a + b
				v[start+k+half] = a - b
				w *= wBase
			}
		}
	}
}

// refBluestein computes an arbitrary-length DFT as a convolution, using
// radix-2 FFTs of the next power of two ≥ 2n-1.
func refBluestein(v []complex128, inverse bool) {
	n := len(v)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp factors w[k] = exp(sign*i*pi*k^2/n), with k^2 taken mod 2n.
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		ksq := (int64(k) * int64(k)) % int64(2*n)
		phi := sign * math.Pi * float64(ksq) / float64(n)
		w[k] = complex(math.Cos(phi), math.Sin(phi))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = v[k] * w[k]
		bk := complex(real(w[k]), -imag(w[k])) // conj(w[k])
		b[k] = bk
		if k > 0 {
			b[m-k] = bk
		}
	}
	refRadix2(a, false)
	refRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	refRadix2(a, true)
	invM := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		v[k] = a[k] * invM * w[k]
	}
}

// refUpsample increases the sampling rate of v by the integer factor ≥ 1
// by zero-padding its spectrum, splitting an even length's Nyquist bin
// between the two halves so a real input stays real.
func refUpsample(v []complex128, factor int) []complex128 {
	if factor == 1 || len(v) == 0 {
		return Clone(v)
	}
	n := len(v)
	spec := refFFT(v)
	out := make([]complex128, n*factor)
	if n%2 == 0 {
		half := n / 2
		copy(out[:half], spec[:half])
		copy(out[len(out)-(half-1):], spec[half+1:])
		nyq := spec[half] / 2
		out[half] = nyq
		out[len(out)-half] = nyq
	} else {
		pos := (n + 1) / 2 // bins 0..(n-1)/2 are non-negative frequencies
		copy(out[:pos], spec[:pos])
		copy(out[len(out)-(n-pos):], spec[pos:])
	}
	res := refIFFT(out)
	Scale(res, complex(float64(factor), 0))
	return res
}

// refAddSegment is UpsamplePlan.AddSegment one term per pass: each
// nonzero segment sample adds its scaled, circularly shifted kernel over
// all of dst, the wrap split in two. The plan's output-major loops perform
// the same operations in the same order for every output.
func refAddSegment(p *UpsamplePlan, dst, seg []complex128, lo int) {
	out := p.n * p.factor
	h := p.impulse[:out]
	for k, s := range seg {
		if s == 0 {
			continue
		}
		shift := p.factor * (lo + k)
		refAddScaledReal(dst[shift:], h[:out-shift], s)
		refAddScaledReal(dst[:shift], h[out-shift:], s)
	}
}

// refAddScaledReal adds s·h[i] to dst[i] for every i < len(h) ≤ len(dst).
func refAddScaledReal(dst []complex128, h []float64, s complex128) {
	re, im := real(s), imag(s)
	dst = dst[:len(h)]
	for i, v := range h {
		dst[i] += complex(re*v, im*v)
	}
}

// refScanBest is SpectralBank.ScanBest with the per-sample scan it had
// before its unwrapped stretch got a kernel: every output index in
// ascending order, a per-sample skip test, the unwrapped samples scaled
// component-wise and the wrapped ones repaired with sampleAt. It forms the
// circular convolution on the Go butterfly loops.
func refScanBest(b *SpectralBank, t int, skip []SkipInterval) (int, float64, [3]complex128) {
	st := b.tmpls[t]
	prod := make([]complex128, b.m)
	goKernelPlan(b.plan).productTransformPermuted(prod, st.specRev, b.specRev, b.plan.inv)
	scale := complex(1/float64(b.m), 0)
	fp := make([]complex128, st.tail)
	for j := range fp {
		var s complex128
		for k := 0; k <= j && k < len(st.taps); k++ {
			s += st.taps[k] * b.prefix[j-k]
		}
		fp[j] = s
	}
	start := len(st.taps) - 1
	wrapFrom := b.m - start
	s := real(scale)
	bestIdx, bestSq := -1, 0.0
	for i := 0; i < b.sigLen; i++ {
		skipped := false
		for _, iv := range skip {
			skipped = skipped || iv.Lo <= i && i <= iv.Hi
		}
		if skipped {
			continue
		}
		var re, im float64
		if i < wrapFrom {
			p := prod[start+i]
			re, im = real(p)*s, imag(p)*s
		} else {
			v := b.sampleAt(prod, fp, scale, start, wrapFrom, i)
			re, im = real(v), imag(v)
		}
		if sq := re*re + im*im; sq > bestSq {
			bestIdx, bestSq = i, sq
		}
	}
	var y3 [3]complex128
	if bestIdx < 0 {
		return -1, 0, y3
	}
	for k := range y3 {
		if i := bestIdx + k - 1; i >= 0 && i < b.sigLen {
			y3[k] = b.sampleAt(prod, fp, scale, start, wrapFrom, i)
		}
	}
	return bestIdx, bestSq, y3
}

// refConvolve returns the full linear convolution of a and b (length
// len(a)+len(b)-1), routed direct or via FFT by convolveUseDirect exactly
// as the matched-filter bank routes. Either input being empty yields nil.
func refConvolve(a, b []complex128) []complex128 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	if convolveUseDirect(len(a), len(b)) {
		return refConvolveDirect(a, b)
	}
	return refConvolveFFT(a, b)
}

func refConvolveDirect(a, b []complex128) []complex128 {
	out := make([]complex128, len(a)+len(b)-1)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

func refConvolveFFT(a, b []complex128) []complex128 {
	outLen := len(a) + len(b) - 1
	m := NextPow2(outLen)
	fa := make([]complex128, m)
	fb := make([]complex128, m)
	copy(fa, a)
	copy(fb, b)
	refRadix2(fa, false)
	refRadix2(fb, false)
	for i := range fa {
		fa[i] *= fb[i]
	}
	refRadix2(fa, true)
	Scale(fa, complex(1/float64(m), 0))
	return fa[:outLen]
}

// refMatchedFilter convolves r with the matched filter for template and
// drops the leading transient, so a template at delay d in r peaks at
// output index d; the output has len(r) samples.
func refMatchedFilter(r, template []complex128) []complex128 {
	if len(r) == 0 || len(template) == 0 {
		return nil
	}
	full := refConvolve(MatchedFilterTaps(template), r)
	out := make([]complex128, len(r))
	copy(out, full[len(template)-1:])
	return out
}
