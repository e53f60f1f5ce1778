package dsp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// The DW1000 pulse bank as package pulse builds it: 108 shapes whose
// bandwidth is 900 MHz/(1 + 0.02·step), roll-off 0.25, sampled at the
// accumulator interval T_s and at T_s/4.
const (
	bankShapes = 108
	bankBeta   = 0.25
	bankTs     = 1 / (2 * 499.2e6)
)

func bankBandwidth(step int) float64 { return 900e6 / (1 + 0.02*float64(step)) }

// firstFloatDiff returns the first index where got and want differ in any
// bit (NaNs compare by their bits), or -1.
func firstFloatDiff(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// checkPulseRun compares RaisedCosineRun's kernel with the Go loop on one
// run, bit for bit, and reports the first difference.
func checkPulseRun(t testing.TB, b, beta float64, first, n int, delay, ts float64) {
	t.Helper()
	want := make([]float64, n)
	raisedCosineRun(want, b, beta, first, delay, ts)
	got := make([]float64, n)
	for i := range got {
		got[i] = 12345 // a stale value the kernel must overwrite
	}
	raisedCosineAVX2(got, b, beta, first, delay, ts)
	if i := firstFloatDiff(got, want); i >= 0 {
		t.Fatalf("b=%v beta=%v first=%d n=%d delay=%v ts=%v: sample %d is %v (%#x), Go %v (%#x)",
			b, beta, first, n, delay, ts, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

// TestPulseKernelBitIdentical pins raisedCosineAsm, through its wrapper,
// to RaisedCosine bit for bit: every shape of the 108-shape bank at T_s and
// T_s/4 over its support at fractional and integer delays (x = 0 lanes),
// run lengths 1–130 (every ragged tail, runs over the 64-sample chunk), the
// points where 2βx = ±1 and their neighbours (the nudge and the lanes just
// outside it), ±0, NaN and ±Inf operands, runs at and past the 2^52 index
// limit of the kernel's float64 stepping, arguments of sin and cos on both
// sides of 2^29 and up to 2^40, and random runs.
func TestPulseKernelBitIdentical(t *testing.T) {
	if !haveAVX2 {
		t.Skip("CPU without AVX2: the Go loop is the only path")
	}
	rng := rand.New(rand.NewPCG(27, 1))
	for step := range bankShapes {
		b := bankBandwidth(step)
		for _, ts := range []float64{bankTs, bankTs / 4} {
			half := int(math.Ceil(4 / b / ts))
			for _, delay := range []float64{0, 100, 100.25, 100.5, 99.999999, 100 + rng.Float64(), -3.7, 1015.9} {
				first := int(math.Floor(delay)) - half
				checkPulseRun(t, b, bankBeta, first, 2*half+2, delay, ts)
			}
			// 2βx = ±1 at t = ±1/(2βB): put the run's first sample, and
			// its neighbours by a few ulps of delay, on the singular point.
			tSing := 1 / (2 * bankBeta * b)
			for _, sgn := range []float64{1, -1} {
				delay := 50 - sgn*tSing/ts
				for k := -3; k <= 3; k++ {
					d := delay
					for range abs(k) {
						d = math.Nextafter(d, math.Inf(k))
					}
					checkPulseRun(t, b, bankBeta, 50, 5, d, ts)
				}
			}
		}
	}
	b := bankBandwidth(0)
	for n := 1; n <= 130; n++ {
		checkPulseRun(t, b, bankBeta, -n/2, n, 0.3, bankTs)
		checkPulseRun(t, b, bankBeta, 7, n, 7, bankTs) // x = 0 at sample 0
	}
	// Operands the kernel leaves to RaisedCosine, and index ranges at the
	// float64 stepping limit.
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkPulseRun(t, v, bankBeta, -5, 11, 0.25, bankTs)
		checkPulseRun(t, b, v, -5, 11, 0.25, bankTs)
		checkPulseRun(t, b, bankBeta, -5, 11, v, bankTs)
		checkPulseRun(t, b, bankBeta, -5, 11, 0.25, v)
	}
	for _, first := range []int{1<<52 - 13, 1<<52 - 12, -1<<52 - 1, -1 << 52, 1<<53 + 1, math.MaxInt - 20} {
		checkPulseRun(t, b, bankBeta, first, 13, float64(first)+6.5, bankTs)
	}
	// |x| from 1 to 2^40: |πx| and |πβx| cross 2^29 on the way.
	for e := 0; e <= 40; e++ {
		x := math.Ldexp(1, e)
		checkPulseRun(t, b, bankBeta, 0, 9, -x/(b*bankTs), bankTs)
		for _, lim := range []float64{1 << 29 / math.Pi, 1 << 29 / (math.Pi * bankBeta)} {
			checkPulseRun(t, 1, bankBeta, 0, 16, -lim, 1-0x1p-20)
		}
	}
	for i := 0; i < 20000; i++ {
		n := 1 + rng.IntN(40)
		beta := []float64{bankBeta, rng.Float64(), 1 + rng.Float64()}[i%3]
		ts := bankTs * math.Pow(2, float64(rng.IntN(40)-4))
		checkPulseRun(t, bankBandwidth(rng.IntN(bankShapes)), beta, rng.IntN(4096)-2048, n, rng.NormFloat64()*1000, ts)
	}
}

func abs(k int) int {
	if k < 0 {
		return -k
	}
	return k
}

// FuzzPulseKernel checks the kernel against RaisedCosine on runs whose
// bandwidth, roll-off, delay and interval are any float64 bit patterns and
// whose start and length are any int16 and 1–130.
func FuzzPulseKernel(f *testing.F) {
	seed := func(b, beta, delay, ts float64, first int16, n uint8) []byte {
		var buf [35]byte
		for i, v := range []float64{b, beta, delay, ts} {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		binary.LittleEndian.PutUint16(buf[32:], uint16(first))
		buf[34] = n
		return buf[:]
	}
	f.Add(seed(bankBandwidth(0), bankBeta, 100.3, bankTs, 86, 29))
	f.Add(seed(bankBandwidth(107), bankBeta, 12, bankTs/4, -45, 113))
	f.Add(seed(1, 0.25, 2, 1, 0, 5))
	f.Add(seed(1e9, 1e300, math.NaN(), 1e-9, -1, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !haveAVX2 {
			t.Skip("CPU without AVX2: the Go loop is the only path")
		}
		if len(data) < 35 {
			return
		}
		var v [4]float64
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		first := int(int16(binary.LittleEndian.Uint16(data[32:])))
		n := 1 + int(data[34])%130
		checkPulseRun(t, v[0], v[1], first, n, v[2], v[3])
	})
}

// pulseSink keeps BenchmarkRaisedCosineRun's results live.
var pulseSink float64

// BenchmarkRaisedCosineRun times one support of a pulse on the Go loop and
// the AVX2 kernel, at the museum shapes' supports at T_s (11, 20 and 25
// samples) and the widest shape's at T_s/4 (113).
func BenchmarkRaisedCosineRun(bm *testing.B) {
	for _, c := range []struct {
		step, n int
		ts      float64
	}{{0, 11, bankTs}, {55, 20, bankTs}, {85, 25, bankTs}, {107, 113, bankTs / 4}} {
		b := bankBandwidth(c.step)
		for _, k := range kernelNames() {
			run := raisedCosineRun
			if k == "avx2" {
				run = raisedCosineAVX2
			}
			bm.Run(fmt.Sprintf("support-%d/%s", c.n, k), func(bb *testing.B) {
				dst := make([]float64, c.n)
				for i := 0; i < bb.N; i++ {
					run(dst, b, bankBeta, 100-c.n/2, 100.37, c.ts)
				}
				pulseSink = dst[0]
			})
		}
	}
}
