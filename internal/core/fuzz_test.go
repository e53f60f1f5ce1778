package core

import (
	"encoding/binary"
	"errors"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/pulse"
)

// FuzzDetect feeds arbitrary complex CIRs and noise levels through the
// search-and-subtract detector on both search paths: it must never panic,
// always terminate, and either return an error or delay-sorted responses
// with finite fields and in-range templates. Valid input (finite taps,
// finite positive noise RMS) must not error, and a NaN or infinite tap or
// noise RMS must be refused with ErrNonFinite. DetectBatch must agree
// with Detect item by item — the same failures, ErrNonFinite where Detect
// reports it, otherwise the same responses bit for bit — and a hostile
// input must never leak into the clean CIR batched beside it. Each tap is
// 16 bytes (real and imaginary float64), clamped to ±1e3.
func FuzzDetect(f *testing.F) {
	f.Add(make([]byte, 1016*16), 1e-5) // all zero
	saturated := make([]complex128, 1016)
	for i := range saturated {
		saturated[i] = complex(1e3, -1e3)
		if i%3 == 0 {
			saturated[i] = -saturated[i]
		}
	}
	f.Add(encodeTaps(saturated), 1e-5)
	impulse := make([]complex128, 1016)
	impulse[500] = 0.01
	f.Add(encodeTaps(impulse), 1e-5)
	r := rand.New(rand.NewPCG(5, 16))
	for n := 1; n <= 30; n++ {
		f.Add(encodeTaps(gaussianTaps(r, n, 1e-2)), 1e-3)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(encodeTaps(impulsiveBurstTaps(seed, 1016, 1e-4)), 1e-4)
	}
	f.Add([]byte{0xff, 0x10, 0x22}, 1e-5)
	nanTap := make([]byte, 64*16)
	binary.LittleEndian.PutUint64(nanTap[16*10+8:], math.Float64bits(math.NaN()))
	f.Add(nanTap, 1e-5)
	f.Add(make([]byte, 64*16), math.Inf(1))

	bank, err := pulse.DefaultBank(1.0016e-9, 3)
	if err != nil {
		f.Fatal(err)
	}
	// Every input also runs through a two-worker BatchDetector next to a
	// fixed clean CIR, whose result must never change.
	cleanTaps := gaussianTaps(rand.New(rand.NewPCG(9, 16)), 1016, 1e-4)
	cleanTaps[300] += 0.02
	cleanTaps[640] += 0.01i
	clean := BatchInput{Taps: cleanTaps, NoiseRMS: 1e-4}
	type fuzzPath struct {
		det       *Detector
		batch     *BatchDetector
		wantClean []Response
	}
	var paths []fuzzPath
	for _, mode := range []DetectorMode{ModeAuto, ModeReference} {
		cfg := DetectorConfig{MaxIterations: 8, Mode: mode}
		det, err := NewDetector(bank, cfg)
		if err != nil {
			f.Fatal(err)
		}
		batch, err := NewBatchDetector(bank, cfg, 2)
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(batch.Close)
		wantClean, err := det.Detect(clean.Taps, clean.NoiseRMS)
		if err != nil || len(wantClean) == 0 {
			f.Fatalf("mode %d: clean CIR gave %d responses, error %v", mode, len(wantClean), err)
		}
		paths = append(paths, fuzzPath{det, batch, slices.Clone(wantClean)})
	}
	f.Fuzz(func(t *testing.T, data []byte, noiseRMS float64) {
		n := min(len(data)/16, 1016)
		if n == 0 {
			t.Skip()
		}
		taps := make([]complex128, n)
		tapsNonFinite := false
		for i := range taps {
			var part [2]float64
			for j := range part {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8*j:]))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					tapsNonFinite = true
				} else {
					v = math.Max(-1e3, math.Min(1e3, v))
				}
				part[j] = v
			}
			taps[i] = complex(part[0], part[1])
		}
		valid := !tapsNonFinite && noiseRMS > 0 && !math.IsInf(noiseRMS, 1)
		// A non-positive finite noise RMS is refused before the taps are
		// looked at, with its own error.
		wantNonFinite := math.IsNaN(noiseRMS) || math.IsInf(noiseRMS, 0) || tapsNonFinite && noiseRMS > 0
		for _, p := range paths {
			det := p.det
			responses, err := det.Detect(taps, noiseRMS)
			items := p.batch.DetectBatch([]BatchInput{{Taps: taps, NoiseRMS: noiseRMS}, clean})
			switch item := items[0]; {
			case (item.Err != nil) != (err != nil):
				t.Fatalf("mode %d: Detect error %v, batch item error %v", det.cfg.Mode, err, item.Err)
			case errors.Is(err, ErrNonFinite) && !errors.Is(item.Err, ErrNonFinite):
				t.Fatalf("mode %d: batch item error %v does not wrap ErrNonFinite", det.cfg.Mode, item.Err)
			case err == nil && !sameResponseBits(item.Responses, responses):
				t.Fatalf("mode %d: batch item %+v, Detect %+v", det.cfg.Mode, item.Responses, responses)
			}
			if items[1].Err != nil || !sameResponseBits(items[1].Responses, p.wantClean) {
				t.Fatalf("mode %d: the clean neighbour changed: %+v, error %v", det.cfg.Mode, items[1].Responses, items[1].Err)
			}
			if err != nil {
				if valid {
					t.Fatalf("mode %d: %v", det.cfg.Mode, err)
				}
				if wantNonFinite && !errors.Is(err, ErrNonFinite) {
					t.Fatalf("mode %d: non-finite input refused with %v, want ErrNonFinite", det.cfg.Mode, err)
				}
				continue
			}
			if !valid {
				t.Fatalf("mode %d: invalid input accepted: noise RMS %g, non-finite taps %v", det.cfg.Mode, noiseRMS, tapsNonFinite)
			}
			for i, r := range responses {
				if math.IsNaN(r.Delay) || math.IsInf(r.Delay, 0) {
					t.Fatalf("mode %d: non-finite delay %v", det.cfg.Mode, r.Delay)
				}
				if cmplx.IsNaN(r.Amplitude) || cmplx.IsInf(r.Amplitude) {
					t.Fatalf("mode %d: non-finite amplitude %v", det.cfg.Mode, r.Amplitude)
				}
				if i > 0 && responses[i].Delay < responses[i-1].Delay {
					t.Fatalf("mode %d: responses not sorted", det.cfg.Mode)
				}
				if r.TemplateIndex < 0 || r.TemplateIndex >= bank.Len() {
					t.Fatalf("mode %d: template index %d out of range", det.cfg.Mode, r.TemplateIndex)
				}
			}
		}
	})
}

// sameResponseBits reports whether two response sets are identical bit
// for bit.
func sameResponseBits(a, b []Response) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k].Delay) != math.Float64bits(b[k].Delay) ||
			math.Float64bits(real(a[k].Amplitude)) != math.Float64bits(real(b[k].Amplitude)) ||
			math.Float64bits(imag(a[k].Amplitude)) != math.Float64bits(imag(b[k].Amplitude)) ||
			a[k].TemplateIndex != b[k].TemplateIndex {
			return false
		}
	}
	return true
}

// encodeTaps is FuzzDetect's input encoding of a CIR: each tap as its real
// and imaginary float64, little-endian.
func encodeTaps(taps []complex128) []byte {
	out := make([]byte, 16*len(taps))
	for i, c := range taps {
		binary.LittleEndian.PutUint64(out[16*i:], math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(out[16*i+8:], math.Float64bits(imag(c)))
	}
	return out
}

// gaussianTaps returns n complex Gaussian taps of the given RMS.
func gaussianTaps(r *rand.Rand, n int, rms float64) []complex128 {
	taps := make([]complex128, n)
	for i := range taps {
		taps[i] = complex(r.NormFloat64(), r.NormFloat64()) * complex(rms/math.Sqrt2, 0)
	}
	return taps
}

// impulsiveBurstTaps returns a fuzz seed CIR of receiver noise hit by
// impulsive interference after Radunović et al. (PAPERS.md): concurrent
// UWB transmitters at random distances make the interference at a
// receiver heavy-tailed. Each tap starts a burst of 1–4 taps with
// probability 3%, with a Pareto amplitude (shape 1.5, from ten times the
// noise RMS) and a random phase. It is robustness input only, not a
// channel model.
func impulsiveBurstTaps(seed uint64, n int, noiseRMS float64) []complex128 {
	r := rand.New(rand.NewPCG(seed, 0x1b))
	taps := gaussianTaps(r, n, noiseRMS)
	for i := 0; i < n; i++ {
		if r.Float64() >= 0.03 {
			continue
		}
		amp := 10 * noiseRMS * math.Pow(1-r.Float64(), -1/1.5)
		burst := cmplx.Rect(amp, 2*math.Pi*r.Float64())
		end := min(n, i+1+r.IntN(4))
		for k := i; k < end; k++ {
			taps[k] += burst
		}
	}
	return taps
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
