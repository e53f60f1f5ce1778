package sim

import (
	"math"
	"math/cmplx"

	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
	"github.com/uwb-sim/concurrent-ranging/internal/dw1000"
)

// Payload capture model.
//
// The paper (and the feasibility study it builds on) relies on the
// observation that one of the concurrently transmitted payloads — in
// practice the one whose preamble the receiver locked to — can still be
// decoded. With few responders or a dominant first arrival that holds;
// with many responders at comparable power the overlapping payloads act
// as interference and the decode can fail. RoundConfig.Capture makes
// this failure mode explicit; the default (nil) keeps the paper's working
// assumption that the locked payload always decodes.

// CaptureModel decides whether the locked frame's payload survives the
// interference of the other concurrent responses.
type CaptureModel struct {
	// ThresholdDB is the minimum signal-to-interference ratio (locked
	// arrival power over the summed power of all other arrivals) for a
	// successful decode, in dB. UWB preamble processing gain makes
	// negative thresholds realistic.
	ThresholdDB float64
}

// DefaultCaptureModel reflects a DW1000-like receiver: the locked frame
// survives up to roughly 9 dB of aggregate interference.
func DefaultCaptureModel() *CaptureModel {
	return &CaptureModel{ThresholdDB: -9}
}

// Decode reports whether the locked arrival's payload decodes against the
// aggregate interference of the other arrivals.
func (m *CaptureModel) Decode(arrivals []dw1000.Arrival, lockedSource string) bool {
	if m == nil {
		return true
	}
	var locked, interference float64
	for i := range arrivals {
		p := arrivalPower(&arrivals[i])
		if arrivals[i].SourceID == lockedSource {
			locked += p
		} else {
			interference += p
		}
	}
	if locked == 0 {
		return false
	}
	if interference == 0 {
		return true
	}
	return dsp.DB(locked/interference) >= m.ThresholdDB
}

// arrivalPower sums the tap powers of one arrival.
func arrivalPower(a *dw1000.Arrival) float64 {
	var p float64
	for _, t := range a.Taps {
		v := cmplx.Abs(t.Gain)
		p += v * v
	}
	return p
}

// SIRdB returns the locked arrival's signal-to-interference ratio in dB,
// for diagnostics (math.Inf(1) with a single arrival).
func SIRdB(arrivals []dw1000.Arrival, lockedSource string) float64 {
	var locked, interference float64
	for i := range arrivals {
		p := arrivalPower(&arrivals[i])
		if arrivals[i].SourceID == lockedSource {
			locked += p
		} else {
			interference += p
		}
	}
	if interference == 0 {
		return math.Inf(1)
	}
	return dsp.DB(locked / interference)
}
