package dw1000

import (
	"fmt"
	"math"

	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
)

// CIR geometry of the DW1000 accumulator at PRF 64 MHz (Sect. VII of the
// paper: 1016 samples of 1.0016 ns → a ~1017 ns ≈ 307 m window).
const (
	// CIRLength is the number of accumulator taps at PRF 64 MHz.
	CIRLength = 1016
	// SampleInterval is the accumulator tap spacing T_s in seconds
	// (half a 499.2 MHz chip).
	SampleInterval = 1 / (2 * 499.2e6)
	// ReferenceIndex is where the receiver's leading-edge algorithm
	// places the first detected path inside the accumulator window,
	// leaving a short noise-only preamble before it.
	ReferenceIndex = 12
)

// WindowDuration is the total CIR observation span in seconds (~1017 ns).
const WindowDuration = CIRLength * SampleInterval

// CIR is one estimated channel impulse response read back from the
// accumulator.
type CIR struct {
	// Taps are the complex accumulator samples.
	Taps []complex128
	// SampleInterval is the tap spacing in seconds.
	SampleInterval float64
	// Origin is the absolute simulation time of tap 0. Real hardware does
	// not expose this; it exists for test assertions and plots.
	Origin float64
	// NoiseRMS is the per-tap complex noise RMS that was injected,
	// available to detectors as the known noise floor.
	NoiseRMS float64
}

// Magnitude returns |taps| as a new slice.
func (c *CIR) Magnitude() []float64 { return dsp.Abs(c.Taps) }

// Clone returns a deep copy of the CIR.
func (c *CIR) Clone() *CIR {
	return &CIR{
		Taps:           dsp.Clone(c.Taps),
		SampleInterval: c.SampleInterval,
		Origin:         c.Origin,
		NoiseRMS:       c.NoiseRMS,
	}
}

// EstimateNoiseRMS returns the per-tap noise RMS. The recorded injected
// figure is used when available (wide pulse shapes leak energy into the
// short pre-reference region, so estimating from it would be biased);
// otherwise the leading noise-only region before the first path is
// measured, which is what real hardware does.
func (c *CIR) EstimateNoiseRMS() float64 {
	if c.NoiseRMS > 0 {
		return c.NoiseRMS
	}
	n := min(ReferenceIndex-2, len(c.Taps))
	if n < 4 {
		return 0
	}
	var acc float64
	for _, t := range c.Taps[:n] {
		acc += real(t)*real(t) + imag(t)*imag(t)
	}
	return math.Sqrt(acc / float64(n))
}

// validateCIRGeometry keeps the package constants consistent with the
// datasheet values quoted in the paper; it is exercised by tests.
func validateCIRGeometry() error {
	if math.Abs(SampleInterval-1.0016e-9) > 0.001e-9 {
		return fmt.Errorf("dw1000: sample interval %g, want ~1.0016 ns", SampleInterval)
	}
	if math.Abs(WindowDuration-1017e-9) > 1e-9 {
		return fmt.Errorf("dw1000: window %g, want ~1017 ns", WindowDuration)
	}
	return nil
}
