package pulse

import (
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
)

// ts is the DW1000 CIR sampling interval used throughout the tests.
const ts = 1.0016e-9

func TestForRegisterRange(t *testing.T) {
	if _, err := ForRegister(0x92); err == nil {
		t.Error("register below default must be rejected (spectral mask)")
	}
	if _, err := ForRegister(0xFF); err == nil {
		t.Error("register above max must be rejected")
	}
	s, err := ForRegister(DefaultRegister)
	if err != nil {
		t.Fatal(err)
	}
	if s.Bandwidth != NominalBandwidth {
		t.Errorf("default bandwidth %g, want %g", s.Bandwidth, NominalBandwidth)
	}
	if NumShapes != 108 {
		t.Errorf("NumShapes = %d, want 108 (Sect. V)", NumShapes)
	}
}

func TestBandwidthDecreasesWithRegister(t *testing.T) {
	prev := math.Inf(1)
	for reg := int(DefaultRegister); reg <= int(MaxRegister); reg++ {
		s, err := ForRegister(byte(reg))
		if err != nil {
			t.Fatal(err)
		}
		if s.Bandwidth >= prev {
			t.Fatalf("bandwidth not strictly decreasing at 0x%02X", reg)
		}
		prev = s.Bandwidth
	}
}

func TestPulseWidthGrowsWithRegister(t *testing.T) {
	// The paper's core pulse-shaping property: a larger TC_PGDELAY value
	// yields a wider pulse (Fig. 5).
	s1, _ := ForRegister(RegisterS1)
	s2, _ := ForRegister(RegisterS2)
	s3, _ := ForRegister(RegisterS3)
	s4, _ := ForRegister(RegisterS4)
	d := []float64{s1.Duration(), s2.Duration(), s3.Duration(), s4.Duration()}
	for i := 1; i < len(d); i++ {
		if d[i] <= d[i-1] {
			t.Fatalf("duration not increasing: %v", d)
		}
	}
}

func TestEvalPeakAndSymmetry(t *testing.T) {
	s, _ := ForRegister(DefaultRegister)
	if got := s.Eval(0); got != 1 {
		t.Fatalf("peak amplitude %g, want 1", got)
	}
	for _, tt := range []float64{0.1e-9, 0.77e-9, 3e-9} {
		if math.Abs(s.Eval(tt)-s.Eval(-tt)) > 1e-12 {
			t.Fatalf("pulse not symmetric at %g", tt)
		}
		if math.Abs(s.Eval(tt)) >= 1 {
			t.Fatalf("off-peak amplitude %g not below peak", s.Eval(tt))
		}
	}
}

func TestEvalSingularityIsFinite(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		reg := DefaultRegister + byte(r.IntN(NumShapes))
		s, err := ForRegister(reg)
		if err != nil {
			return false
		}
		// Evaluate on a fine grid including the raised-cosine singularity
		// t = 1/(2*beta*B).
		sing := 1 / (2 * s.Beta * s.Bandwidth)
		for _, tt := range []float64{sing, -sing, sing * (1 + 1e-12), r.Float64() * 20e-9} {
			v := s.Eval(tt)
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: mrand.New(mrand.NewSource(50))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTemplateUnitEnergyAndCentering(t *testing.T) {
	for reg := int(DefaultRegister); reg <= int(MaxRegister); reg += 7 {
		s, _ := ForRegister(byte(reg))
		tmpl := s.Template(ts)
		if len(tmpl)%2 != 1 {
			t.Fatalf("0x%02X: template length %d not odd", reg, len(tmpl))
		}
		if e := dsp.Energy(tmpl); math.Abs(e-1) > 1e-9 {
			t.Fatalf("0x%02X: template energy %g", reg, e)
		}
		if idx := dsp.ArgMax(dsp.Abs(tmpl)); idx != (len(tmpl)-1)/2 {
			t.Fatalf("0x%02X: peak at %d, want center %d", reg, idx, (len(tmpl)-1)/2)
		}
	}
}

func TestRenderIntoPlacesPeakAtDelay(t *testing.T) {
	s, _ := ForRegister(DefaultRegister)
	dst := make([]complex128, 256)
	s.RenderInto(dst, 1, 100, ts)
	if idx := dsp.ArgMax(dsp.Abs(dst)); idx != 100 {
		t.Fatalf("peak at %d, want 100", idx)
	}
	// Fractional delay: peak magnitude at the two straddling samples.
	dst = make([]complex128, 256)
	s.RenderInto(dst, 1, 100.5, ts)
	mag := dsp.Abs(dst)
	if math.Abs(mag[100]-mag[101]) > 1e-9 {
		t.Fatalf("fractional delay not symmetric: %g vs %g", mag[100], mag[101])
	}
}

func TestRenderIntoEnergyNearUnit(t *testing.T) {
	// Rendered pulses carry approximately unit energy regardless of the
	// fractional sample offset (band-limited sampling property).
	s, _ := ForRegister(RegisterS3)
	for _, frac := range []float64{0, 0.25, 0.5, 0.9} {
		dst := make([]complex128, 512)
		s.RenderInto(dst, 1, 200+frac, ts)
		e := dsp.Energy(dst)
		if math.Abs(e-1) > 0.05 {
			t.Fatalf("frac %g: rendered energy %g not ~1", frac, e)
		}
	}
}

func TestRenderIntoClipsAtBuffer(t *testing.T) {
	s, _ := ForRegister(DefaultRegister)
	dst := make([]complex128, 16)
	// Should not panic even when the pulse extends past both ends.
	s.RenderInto(dst, 1, 0, ts)
	s.RenderInto(dst, 1, 15.9, ts)
	s.RenderInto(dst, 1, -5, ts)
	s.RenderInto(dst, 1, 400, ts)
	if dsp.Energy(dst) == 0 {
		t.Fatal("nothing rendered")
	}
}

// TestRenderSegmentMatchesRenderInto: adding the rendered segment at its
// window index reproduces RenderInto bit for bit, for pulses inside the
// window, clipped at either edge, and outside it.
func TestRenderSegmentMatchesRenderInto(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 1))
	var seg []complex128
	for _, reg := range []byte{RegisterS1, RegisterS3, MaxRegister} {
		s, _ := ForRegister(reg)
		for _, delay := range []float64{0, 2.3, 31.7, 62.9, 63, 80, -3, -40} {
			base := make([]complex128, 64)
			for i := range base {
				base[i] = complex(r.NormFloat64(), r.NormFloat64())
			}
			alpha := complex(r.NormFloat64(), r.NormFloat64())
			want := append([]complex128(nil), base...)
			s.RenderInto(want, alpha, delay, ts)
			var lo int
			seg, lo = s.RenderSegment(seg, alpha, delay, ts, len(base))
			for k, v := range seg {
				base[lo+k] += v
			}
			for i := range want {
				if base[i] != want[i] {
					t.Fatalf("register 0x%02X, delay %g: sample %d = %v, RenderInto gives %v", reg, delay, i, base[i], want[i])
				}
			}
		}
	}
}

func TestRenderIntoScalesWithAlpha(t *testing.T) {
	s, _ := ForRegister(DefaultRegister)
	a := make([]complex128, 128)
	b := make([]complex128, 128)
	s.RenderInto(a, 1, 64, ts)
	alpha := complex(0.3, -0.4)
	s.RenderInto(b, alpha, 64, ts)
	for i := range a {
		if d := a[i]*alpha - b[i]; math.Abs(real(d))+math.Abs(imag(d)) > 1e-12 {
			t.Fatalf("alpha scaling broken at %d", i)
		}
	}
}
