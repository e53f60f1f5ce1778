package pulse

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
)

// The support sweeps as one Eval call per sample, the form they had
// before EvalRun: the oracles the swept versions match bit for bit.

func templateOracle(s Shape, ts float64) []complex128 {
	n := s.TemplateLen(ts)
	c := (n - 1) / 2
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(s.Eval(float64(i-c)*ts), 0)
	}
	return dsp.NormalizeEnergy(out)
}

func normConstantOracle(s Shape, ts float64) float64 {
	n := s.TemplateLen(ts)
	c := (n - 1) / 2
	var e float64
	for i := 0; i < n; i++ {
		v := s.Eval(float64(i-c) * ts)
		e += v * v
	}
	if e == 0 {
		return 0
	}
	return 1 / math.Sqrt(e)
}

func renderNormIntoOracle(s Shape, dst []complex128, alpha complex128, delay, ts, norm float64) {
	lo, hi, a := s.renderSpan(alpha, delay, ts, norm, len(dst))
	for n := lo; n <= hi; n++ {
		dst[n] += a * complex(s.Eval((float64(n)-delay)*ts), 0)
	}
}

func renderSegmentOracle(s Shape, alpha complex128, delay, ts, norm float64, n int) ([]complex128, int) {
	lo, hi, a := s.renderSpan(alpha, delay, ts, norm, n)
	var seg []complex128
	for k := lo; k <= hi; k++ {
		seg = append(seg, a*complex(s.Eval((float64(k)-delay)*ts), 0))
	}
	return seg, lo
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestSupportSweepsMatchEvalLoops pins Template, NormConstant,
// RenderNormInto and RenderSegment to their one-Eval-per-sample oracles
// bit for bit, for all 108 shapes at T_s, T_s/4 and T_s/16 (supports of up
// to 449 samples, several EvalRun chunks), at integer and fractional
// delays, inside the window and clipped at either edge. EvalRun itself is
// checked against Eval sample by sample.
func TestSupportSweepsMatchEvalLoops(t *testing.T) {
	r := rand.New(rand.NewPCG(27, 2))
	var seg []complex128
	for reg := int(DefaultRegister); reg <= int(MaxRegister); reg++ {
		s, _ := ForRegister(byte(reg))
		for _, step := range []float64{ts, ts / 4, ts / 16} {
			got, want := s.Template(step), templateOracle(s, step)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("0x%02X, ts %g: template sample %d = %v, oracle %v", reg, step, i, got[i], want[i])
				}
			}
			norm := s.NormConstant(step)
			if w := normConstantOracle(s, step); math.Float64bits(norm) != math.Float64bits(w) {
				t.Fatalf("0x%02X, ts %g: NormConstant %v, oracle %v", reg, step, norm, w)
			}
			n := 3 * s.TemplateLen(step)
			for _, delay := range []float64{float64(n / 2), float64(n/2) + r.Float64(), 0.4, -3.5, float64(n) - 1.2, float64(n) + 2.5, -float64(n)} {
				alpha := complex(r.NormFloat64(), r.NormFloat64())
				base := make([]complex128, n)
				for i := range base {
					base[i] = complex(r.NormFloat64(), r.NormFloat64())
				}
				got, want := append([]complex128(nil), base...), append([]complex128(nil), base...)
				s.RenderNormInto(got, alpha, delay, step, norm)
				renderNormIntoOracle(s, want, alpha, delay, step, norm)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("0x%02X, ts %g, delay %g: rendered sample %d = %v, oracle %v", reg, step, delay, i, got[i], want[i])
					}
				}
				var lo int
				seg, lo = s.RenderSegment(seg, alpha, delay, step, norm, n)
				wseg, wlo := renderSegmentOracle(s, alpha, delay, step, norm, n)
				if lo != wlo || len(seg) != len(wseg) {
					t.Fatalf("0x%02X, ts %g, delay %g: segment of %d at %d, oracle %d at %d", reg, step, delay, len(seg), lo, len(wseg), wlo)
				}
				for k := range wseg {
					if !sameBits(seg[k], wseg[k]) {
						t.Fatalf("0x%02X, ts %g, delay %g: segment sample %d = %v, oracle %v", reg, step, delay, k, seg[k], wseg[k])
					}
				}
				vals := make([]float64, n)
				s.EvalRun(vals, -n/2, delay-float64(n/2), step)
				for k, v := range vals {
					if w := s.Eval((float64(k-n/2) - (delay - float64(n/2))) * step); math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("0x%02X, ts %g, delay %g: EvalRun sample %d = %v, Eval %v", reg, step, delay, k, v, w)
					}
				}
			}
		}
	}
}

// TestSupportSweepsAllocateNothing: the sweeps fill stack buffers, so
// NormConstant, RenderNormInto and a RenderSegment into a large enough
// segment allocate nothing, even for the widest shape's support at T_s/4.
func TestSupportSweepsAllocateNothing(t *testing.T) {
	s, _ := ForRegister(MaxRegister)
	dst := make([]complex128, 512)
	seg := make([]complex128, 0, 512)
	norm := s.NormConstant(ts / 4)
	n := testing.AllocsPerRun(20, func() {
		s.NormConstant(ts / 4)
		s.RenderNormInto(dst, 1, 200.3, ts/4, norm)
		seg, _ = s.RenderSegment(seg, 1, 200.3, ts/4, norm, len(dst))
	})
	if n != 0 {
		t.Fatalf("%v allocations per sweep", n)
	}
}
