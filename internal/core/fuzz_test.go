package core

import (
	"encoding/binary"
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// FuzzDetect feeds arbitrary CIRs and noise levels through the
// search-and-subtract detector: it must never panic, always terminate, and
// either return an error or delay-sorted responses with finite fields.
// Valid input (finite taps, finite positive noise RMS) must not error, and
// a NaN or infinite tap or noise RMS must be refused with ErrNonFinite.
func FuzzDetect(f *testing.F) {
	f.Add(make([]byte, 1016*4), 1e-5)
	f.Add([]byte{0xff, 0x10, 0x22}, 1e-5)
	nanTap := make([]byte, 64*8)
	binary.LittleEndian.PutUint64(nanTap[8*10:], math.Float64bits(math.NaN()))
	f.Add(nanTap, 1e-5)
	f.Add(make([]byte, 64*8), math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, noiseRMS float64) {
		n := min(len(data)/8, 1016)
		if n == 0 {
			t.Skip()
		}
		taps := make([]complex128, n)
		tapsNonFinite := false
		for i := 0; i < n; i++ {
			re := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if math.IsNaN(re) || math.IsInf(re, 0) {
				tapsNonFinite = true
			} else {
				re = math.Max(-1e3, math.Min(1e3, re))
			}
			taps[i] = complex(re, 0)
		}
		bank, err := pulse.DefaultBank(1.0016e-9, 2)
		if err != nil {
			t.Fatal(err)
		}
		det, err := NewDetector(bank, DetectorConfig{MaxIterations: 8})
		if err != nil {
			t.Fatal(err)
		}
		responses, err := det.Detect(taps, noiseRMS)
		valid := !tapsNonFinite && noiseRMS > 0 && !math.IsInf(noiseRMS, 1)
		// A non-positive finite noise RMS is refused before the taps are
		// looked at, with its own error.
		wantNonFinite := math.IsNaN(noiseRMS) || math.IsInf(noiseRMS, 0) || tapsNonFinite && noiseRMS > 0
		if err != nil {
			if valid {
				t.Fatal(err)
			}
			if wantNonFinite && !errors.Is(err, ErrNonFinite) {
				t.Fatalf("non-finite input refused with %v, want ErrNonFinite", err)
			}
			return
		}
		if !valid {
			t.Fatalf("invalid input accepted: noise RMS %g, non-finite taps %v", noiseRMS, tapsNonFinite)
		}
		for i, r := range responses {
			if math.IsNaN(r.Delay) || math.IsInf(r.Delay, 0) {
				t.Fatalf("non-finite delay %v", r.Delay)
			}
			if cmplx.IsNaN(r.Amplitude) || cmplx.IsInf(r.Amplitude) {
				t.Fatalf("non-finite amplitude %v", r.Amplitude)
			}
			if i > 0 && responses[i].Delay < responses[i-1].Delay {
				t.Fatal("responses not sorted")
			}
			if r.TemplateIndex < 0 || r.TemplateIndex >= bank.Len() {
				t.Fatalf("template index %d out of range", r.TemplateIndex)
			}
		}
	})
}

// FuzzSlotPlan checks Assign/IDFor/SlotOf consistency on arbitrary plans.
func FuzzSlotPlan(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint16(7))
	f.Fuzz(func(t *testing.T, slots, shapes uint8, id uint16) {
		plan := SlotPlan{
			NumSlots:  int(slots%32) + 1,
			NumShapes: int(shapes%16) + 1,
		}
		plan.SlotWidth = MaxSlotDelay / float64(plan.NumSlots)
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		rid := int(id) % plan.Capacity()
		slot, shape, err := plan.Assign(rid)
		if err != nil {
			t.Fatal(err)
		}
		back, err := plan.IDFor(slot, shape)
		if err != nil || back != rid {
			t.Fatalf("round trip %d -> (%d,%d) -> %d (%v)", rid, slot, shape, back, err)
		}
		if got := plan.SlotOf(plan.ExtraDelay(slot)); got != slot {
			t.Fatalf("SlotOf(nominal position of %d) = %d", slot, got)
		}
	})
}
