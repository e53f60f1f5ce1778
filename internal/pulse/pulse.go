// Package pulse models the transmitted pulse shapes of the Decawave DW1000
// UWB transceiver. The 8-bit TC_PGDELAY register controls the pulse
// generator delay and thereby the output bandwidth: the default value 0x93
// (Channel 7, PRF 64 MHz) yields the nominal 900 MHz bandwidth, and larger
// values widen the pulse (Sect. V of the paper, Fig. 5). Widening is
// allowed by the regulatory spectral mask, narrowing is not, so the usable
// range is [0x93, 0xFE] — 108 distinct shapes.
//
// Shapes are modeled as raised-cosine-spectrum band-limited pulses whose
// bandwidth shrinks as the register value grows. Templates are sampled at
// the CIR accumulator interval and normalized to unit discrete energy, the
// same normalization the paper applies before matched filtering.
package pulse

import (
	"fmt"
	"math"

	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
)

const (
	// DefaultRegister is the default TC_PGDELAY value for Channel 7 at
	// PRF 64 MHz and the lower limit of the usable range (narrowest pulse).
	DefaultRegister byte = 0x93

	// MaxRegister is the widest usable TC_PGDELAY value.
	MaxRegister byte = 0xFE

	// NumShapes is the number of distinct usable pulse shapes
	// (MaxRegister - DefaultRegister + 1 = 108, matching Sect. V).
	NumShapes = int(MaxRegister-DefaultRegister) + 1

	// NominalBandwidth is the output bandwidth at the default register
	// value on Channel 7 (the DW1000's maximum, 900 MHz).
	NominalBandwidth = 900e6

	// bandwidthSlope is the per-register-step relative widening factor:
	// B(reg) = NominalBandwidth / (1 + bandwidthSlope·(reg - 0x93)).
	bandwidthSlope = 0.02

	// rollOff is the raised-cosine spectral roll-off factor.
	rollOff = 0.25

	// supportHalfWidths is the template truncation point in units of 1/B
	// on each side of the pulse peak.
	supportHalfWidths = 4.0
)

// Paper register values for the shapes s1..s4 shown in Fig. 5.
const (
	RegisterS1 byte = 0x93
	RegisterS2 byte = 0xC8
	RegisterS3 byte = 0xE6
	RegisterS4 byte = 0xF0
)

// Shape is one DW1000 pulse shape, fully determined by its TC_PGDELAY
// register value.
type Shape struct {
	// Register is the TC_PGDELAY value that produces this shape.
	Register byte
	// Bandwidth is the resulting output bandwidth in Hz.
	Bandwidth float64
	// Beta is the raised-cosine roll-off factor.
	Beta float64
}

// ForRegister returns the pulse shape produced by the given TC_PGDELAY
// register value. Values below DefaultRegister would narrow the pulse and
// violate the spectral mask; values above MaxRegister are not usable.
func ForRegister(reg byte) (Shape, error) {
	if reg < DefaultRegister || reg > MaxRegister {
		return Shape{}, fmt.Errorf("pulse: TC_PGDELAY 0x%02X outside usable range [0x%02X, 0x%02X]",
			reg, DefaultRegister, MaxRegister)
	}
	step := float64(reg - DefaultRegister)
	return Shape{
		Register:  reg,
		Bandwidth: NominalBandwidth / (1 + bandwidthSlope*step),
		Beta:      rollOff,
	}, nil
}

// Eval returns the pulse amplitude at time t (seconds relative to the pulse
// peak). The peak amplitude is 1; the shape is the impulse response of a
// raised-cosine filter with the shape's bandwidth and roll-off
// (dsp.RaisedCosine).
func (s Shape) Eval(t float64) float64 {
	return dsp.RaisedCosine(s.Bandwidth, s.Beta, t)
}

// EvalRun sets dst[k] = s.Eval((float64(first+k)-delay)*ts) for every k,
// bit for bit: the pulse peaking at the fractional sample position delay,
// sampled at interval ts over the sample indices first … first+len(dst)−1.
// It runs dsp.RaisedCosineRun, four samples at a time where the CPU has
// AVX2. Every support sweep of this package and of the detector's
// refinement goes through it.
func (s Shape) EvalRun(dst []float64, first int, delay, ts float64) {
	dsp.RaisedCosineRun(dst, s.Bandwidth, s.Beta, first, delay, ts)
}

// evalChunk is the length of the stack buffers the support sweeps fill
// with EvalRun: one chunk covers the widest shape's support at T_s/4 (at
// most 113 samples), and longer runs take several.
const evalChunk = 128

// SupportHalfWidth returns the half-width of the truncated pulse support in
// seconds. The template spans ±SupportHalfWidth around the peak.
func (s Shape) SupportHalfWidth() float64 {
	return supportHalfWidths / s.Bandwidth
}

// Duration returns the total truncated pulse duration T_p in seconds.
func (s Shape) Duration() float64 {
	return 2 * s.SupportHalfWidth()
}

// TemplateLen returns the number of samples of the template at sampling
// interval ts. It is always odd so the peak sits on the center sample.
func (s Shape) TemplateLen(ts float64) int {
	half := int(math.Ceil(s.SupportHalfWidth() / ts))
	return 2*half + 1
}

// Template samples the pulse at interval ts, centered so the peak is at
// index (len-1)/2, and normalizes it to unit discrete energy.
func (s Shape) Template(ts float64) []complex128 {
	n := s.TemplateLen(ts)
	c := (n - 1) / 2
	out := make([]complex128, n)
	var buf [evalChunk]float64
	for i := 0; i < n; i += evalChunk {
		v := buf[:min(n-i, evalChunk)]
		s.EvalRun(v, i-c, 0, ts)
		for k, x := range v {
			out[i+k] = complex(x, 0)
		}
	}
	return dsp.NormalizeEnergy(out)
}

// NormConstant returns the factor that scales raw Eval samples at interval
// ts to unit discrete energy (the scale used by Template).
func (s Shape) NormConstant(ts float64) float64 {
	n := s.TemplateLen(ts)
	c := (n - 1) / 2
	var e float64
	var buf [evalChunk]float64
	for i := 0; i < n; i += evalChunk {
		v := buf[:min(n-i, evalChunk)]
		s.EvalRun(v, i-c, 0, ts)
		for _, x := range v {
			e += x * x
		}
	}
	if e == 0 {
		return 0
	}
	return 1 / math.Sqrt(e)
}

// RenderInto adds alpha times the unit-energy pulse, with its peak at the
// fractional sample position delay (in samples of ts), into dst. Samples
// outside dst are discarded. This is how the radio model superposes each
// multipath component into the CIR accumulator.
func (s Shape) RenderInto(dst []complex128, alpha complex128, delay, ts float64) {
	s.RenderNormInto(dst, alpha, delay, ts, s.NormConstant(ts))
}

// RenderNormInto is RenderInto with norm = NormConstant(ts) passed in, so
// a caller rendering many pulses of one shape at one interval computes it
// once; the rendered samples are bit-identical.
func (s Shape) RenderNormInto(dst []complex128, alpha complex128, delay, ts, norm float64) {
	lo, hi, a := s.renderSpan(alpha, delay, ts, norm, len(dst))
	var buf [evalChunk]float64
	for n := lo; n <= hi; n += evalChunk {
		v := buf[:min(hi-n+1, evalChunk)]
		s.EvalRun(v, n, delay, ts)
		for k, x := range v {
			dst[n+k] += a * complex(x, 0)
		}
	}
}

// RenderSegment writes into seg the samples RenderInto would add to a
// window of n samples and returns them with the window index of the
// first: RenderInto(dst, …) equals adding the returned segment into
// dst[lo:], bit for bit. norm must be NormConstant(ts), which the caller
// computes once per shape. seg's storage is reused when large enough. The
// segment is empty when the pulse misses the window.
func (s Shape) RenderSegment(seg []complex128, alpha complex128, delay, ts, norm float64, n int) ([]complex128, int) {
	lo, hi, a := s.renderSpan(alpha, delay, ts, norm, n)
	seg = seg[:0]
	var buf [evalChunk]float64
	for k := lo; k <= hi; k += evalChunk {
		v := buf[:min(hi-k+1, evalChunk)]
		s.EvalRun(v, k, delay, ts)
		for _, x := range v {
			seg = append(seg, a*complex(x, 0))
		}
	}
	return seg, lo
}

// renderSpan returns the inclusive window indices [lo, hi] of an n-sample
// window that the pulse peaking at delay covers, and alpha scaled to unit
// discrete energy by norm = NormConstant(ts). hi < lo when nothing is
// rendered.
func (s Shape) renderSpan(alpha complex128, delay, ts, norm float64, n int) (lo, hi int, a complex128) {
	if norm == 0 {
		return 0, -1, 0
	}
	halfSamples := s.SupportHalfWidth() / ts
	lo = max(int(math.Floor(delay-halfSamples)), 0)
	hi = min(int(math.Ceil(delay+halfSamples)), n-1)
	return lo, hi, alpha * complex(norm, 0)
}
