package core

import (
	"fmt"

	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// ThresholdDetector is the baseline the paper compares against in
// Sect. VI (Falsi et al.): scan the CIR magnitude, and whenever it crosses
// a threshold take the maximum of the following N_p samples as a detected
// peak, then continue after that window. N_p spans half the truncated
// pulse support, which brackets the main lobe the way Falsi et al. size
// their window.
type ThresholdDetector struct {
	// Shape is the pulse whose duration defines the N_p window.
	Shape pulse.Shape
	// SampleInterval is the CIR tap spacing in seconds.
	SampleInterval float64
	// ThresholdFactor is the crossing threshold as a multiple of the CIR
	// noise RMS. Zero selects DefaultThresholdFactor.
	ThresholdFactor float64
	// MaxResponses bounds the number of reported peaks (N−1); zero means
	// scan the whole CIR.
	MaxResponses int
}

// Detect scans the CIR and returns the detected peaks in ascending delay
// order. Unlike the search-and-subtract detector it cannot resolve
// responses closer than one pulse duration: they fall into a single N_p
// window and merge into one peak — the failure mode the paper quantifies.
func (t *ThresholdDetector) Detect(taps []complex128, noiseRMS float64) ([]Response, error) {
	if len(taps) == 0 {
		return nil, fmt.Errorf("core: empty CIR")
	}
	if t.SampleInterval <= 0 {
		return nil, fmt.Errorf("core: threshold detector needs a positive sample interval")
	}
	if noiseRMS <= 0 {
		return nil, fmt.Errorf("core: noise RMS %g must be positive", noiseRMS)
	}
	factor := t.ThresholdFactor
	if factor == 0 {
		factor = DefaultThresholdFactor
	}
	if factor < 0 {
		return nil, fmt.Errorf("core: negative threshold factor %g", factor)
	}
	np := int(t.Shape.Duration()/2/t.SampleInterval + 0.5)
	if np < 1 {
		np = 1
	}
	th := factor * noiseRMS
	mag := dsp.Abs(taps)
	var responses []Response
	for i := 0; i < len(mag); i++ {
		if mag[i] < th {
			continue
		}
		end := min(i+np, len(mag))
		idx, _ := dsp.MaxWithin(mag, i, end)
		responses = append(responses, Response{
			Delay:         float64(idx) * t.SampleInterval,
			Amplitude:     taps[idx],
			TemplateIndex: 0,
		})
		if t.MaxResponses > 0 && len(responses) >= t.MaxResponses {
			break
		}
		i = end - 1 // resume scanning after the pulse window
	}
	return responses, nil
}
