package dsp

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// bytesToSignal reinterprets fuzz bytes as a bounded complex signal,
// rejecting NaN/Inf inputs (the library's documented domain).
func bytesToSignal(data []byte, maxLen int) []complex128 {
	n := len(data) / 16
	if n == 0 || n > maxLen {
		return nil
	}
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			return nil
		}
		// Clamp magnitudes so energy checks stay in float range.
		re = math.Max(-1e6, math.Min(1e6, re))
		im = math.Max(-1e6, math.Min(1e6, im))
		out[i] = complex(re, im)
	}
	return out
}

// fuzzSample encodes the complex sample ≈ 1 − 2i, the repeat unit of
// the seeds that need non-power-of-two lengths or the FFT convolution path.
var fuzzSample = []byte{1, 2, 3, 4, 5, 6, 0xf0, 0x3f, 7, 8, 9, 10, 11, 12, 0x00, 0xc0}

// FuzzFFTRoundTrip round-trips a signal of the fuzzed length through a
// dftPlan: radix-2 for powers of two, Bluestein otherwise.
func FuzzFFTRoundTrip(f *testing.F) {
	f.Add(make([]byte, 16*8))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(bytes.Repeat(fuzzSample, 15))
	f.Fuzz(func(t *testing.T, data []byte) {
		v := bytesToSignal(data, 512)
		if v == nil {
			t.Skip()
		}
		back := planDFT(t, planDFT(t, v, false), true)
		if len(back) != len(v) {
			t.Fatalf("length changed: %d -> %d", len(v), len(back))
		}
		scale := maxAbs(v) + 1
		for i := range v {
			if d := back[i] - v[i]; math.Hypot(real(d), imag(d)) > 1e-6*scale*float64(len(v)) {
				t.Fatalf("round trip diverged at %d: %v vs %v", i, back[i], v[i])
			}
		}
	})
}

// FuzzUpsamplePlan checks factor validation and that every valid plan is
// bit-identical to the reference up-sampler.
func FuzzUpsamplePlan(f *testing.F) {
	f.Add(make([]byte, 16*4), 4)
	f.Add(bytes.Repeat(fuzzSample, 15), 3)
	f.Fuzz(func(t *testing.T, data []byte, factor int) {
		v := bytesToSignal(data, 256)
		if v == nil || factor > 16 {
			t.Skip()
		}
		p, err := NewUpsamplePlan(len(v), factor)
		if factor < 1 {
			if err == nil {
				t.Fatal("invalid factor accepted")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		up := p.Execute(make([]complex128, len(v)*factor), v)
		if len(up) != len(v)*factor {
			t.Fatalf("length %d, want %d", len(up), len(v)*factor)
		}
		equalExact(t, up, refUpsample(v, factor), "upsample")
	})
}

// FuzzUpsampleAddSegment checks the sparse update against Execute of the
// segment placed in an all-zero input, and bit for bit against the
// term-by-term oracle on the Go loop and the AVX2 kernel
// (checkAddSegmentKernels) onto a zero and a Gaussian signal, for random
// even and odd lengths, factors 1–8 and segment positions. Segments run up
// to 32 samples, the span RenderSegment gives the widest DW1000 pulse
// shape at T_s.
func FuzzUpsampleAddSegment(f *testing.F) {
	f.Add(bytes.Repeat(fuzzSample, 11), uint16(1016), uint8(3), uint16(500))
	f.Add(bytes.Repeat(fuzzSample, 3), uint16(15), uint8(2), uint16(12))
	f.Add(fuzzSample, uint16(1), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, factor uint8, lo uint16) {
		seg := bytesToSignal(data, 32)
		size := int(n)%1024 + 1
		if seg == nil || len(seg) > size {
			t.Skip()
		}
		p, err := NewUpsamplePlan(size, int(factor)%8+1)
		if err != nil {
			t.Fatal(err)
		}
		at := int(lo) % (size - len(seg) + 1)
		checkAddSegment(t, p, make([]complex128, size), seg, at)
		out := size * p.factor
		checkAddSegmentKernels(t, p, make([]complex128, out), seg, at, "zero signal")
		checkAddSegmentKernels(t, p, randComplex(out, uint64(out)), seg, at, "Gaussian signal")
	})
}

// FuzzConvolve checks MatchedFilterBank.FilterInto bit for bit against
// the reference matched filter on both the direct path and (for signals
// long enough) the FFT path.
func FuzzConvolve(f *testing.F) {
	f.Add(make([]byte, 32), make([]byte, 48))
	f.Add(bytes.Repeat(fuzzSample, 100), bytes.Repeat(fuzzSample, 200))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		tmpl := bytesToSignal(a, 128)
		sig := bytesToSignal(b, 256)
		bank, err := NewMatchedFilterBank([][]complex128{tmpl}, len(sig))
		if len(tmpl) == 0 || len(sig) == 0 {
			if err == nil {
				t.Fatal("empty template or signal accepted")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := bank.Transform(sig); err != nil {
			t.Fatal(err)
		}
		got, err := bank.FilterInto(make([]complex128, len(sig)), 0)
		if err != nil {
			t.Fatal(err)
		}
		equalExact(t, got, refMatchedFilter(sig, tmpl), "matched filter")
	})
}
