package pulse

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/dsp"
)

func TestNewBankValidation(t *testing.T) {
	if _, err := NewBank(ts); err == nil {
		t.Error("empty bank must be rejected")
	}
	if _, err := NewBank(0, DefaultRegister); err == nil {
		t.Error("non-positive sampling interval must be rejected")
	}
	if _, err := NewBank(ts, 0x10); err == nil {
		t.Error("out-of-range register must be rejected")
	}
}

func TestBankCommonGeometry(t *testing.T) {
	b, err := NewBank(ts, RegisterS1, RegisterS2, RegisterS3, RegisterS4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d", b.Len())
	}
	n := len(b.Template(0))
	for i := 0; i < b.Len(); i++ {
		tmpl := b.Template(i)
		if len(tmpl) != n {
			t.Fatalf("template %d length %d, want common %d", i, len(tmpl), n)
		}
		if e := dsp.Energy(tmpl); math.Abs(e-1) > 1e-9 {
			t.Fatalf("template %d energy %g", i, e)
		}
		if idx := dsp.ArgMax(dsp.Abs(tmpl)); idx != (n-1)/2 {
			t.Fatalf("template %d peak at %d, want shared center %d", i, idx, (n-1)/2)
		}
	}
}

func TestDefaultRegistersPaperValues(t *testing.T) {
	regs, err := DefaultRegisters(4)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x93, 0xC8, 0xE6, 0xF0}
	for i := range want {
		if regs[i] != want[i] {
			t.Fatalf("got %#v, want %#v", regs, want)
		}
	}
	if _, err := DefaultRegisters(0); err == nil {
		t.Error("n=0 must be rejected")
	}
	if _, err := DefaultRegisters(NumShapes + 1); err == nil {
		t.Error("n beyond shape count must be rejected")
	}
}

func TestDefaultRegistersLargeNAreDistinctAndSorted(t *testing.T) {
	for _, n := range []int{5, 12, 50, NumShapes} {
		regs, err := DefaultRegisters(n)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[byte]bool, len(regs))
		for i, r := range regs {
			if r < DefaultRegister || r > MaxRegister {
				t.Fatalf("n=%d: register 0x%02X out of range", n, r)
			}
			if seen[r] {
				t.Fatalf("n=%d: duplicate register 0x%02X", n, r)
			}
			seen[r] = true
			if i > 0 && regs[i] <= regs[i-1] {
				t.Fatalf("n=%d: registers not ascending", n)
			}
		}
	}
}

// crossCorrelation returns the matrix of peak matched-filter magnitudes
// between all template pairs: entry [i][j] is the strongest response of
// template j to a unit-amplitude pulse of shape i (alignment chosen by the
// detector), computed on the detector's MatchedFilterBank.
func crossCorrelation(t *testing.T, b *Bank) [][]float64 {
	t.Helper()
	templates := make([][]complex128, b.Len())
	for i := range templates {
		templates[i] = b.Template(i)
	}
	n := len(templates[0])
	fb, err := dsp.NewMatchedFilterBank(templates, n)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]complex128, n)
	out := make([][]float64, len(templates))
	for i, tmpl := range templates {
		if err := fb.Transform(tmpl); err != nil {
			t.Fatal(err)
		}
		out[i] = make([]float64, len(templates))
		for j := range templates {
			if _, err := fb.FilterInto(y, j); err != nil {
				t.Fatal(err)
			}
			mag := dsp.Abs(y)
			out[i][j] = mag[dsp.ArgMax(mag)]
		}
	}
	return out
}

func TestCrossCorrelationDiagonalDominance(t *testing.T) {
	// The matched template must always respond strongest to its own pulse —
	// the property pulse-shape identification (Sect. V) relies on.
	b, err := DefaultBank(ts, 4)
	if err != nil {
		t.Fatal(err)
	}
	cc := crossCorrelation(t, b)
	for i := range cc {
		if math.Abs(cc[i][i]-1) > 1e-6 {
			t.Fatalf("diagonal [%d][%d] = %g, want 1", i, i, cc[i][i])
		}
		for j := range cc[i] {
			if j == i {
				continue
			}
			if cc[i][j] >= cc[i][i] {
				t.Fatalf("template %d responds stronger to shape %d (%g >= %g)",
					j, i, cc[i][j], cc[i][i])
			}
		}
	}
}

func TestCrossCorrelationSeparationMargin(t *testing.T) {
	// The paper's shapes must be separated enough for >99% identification:
	// require at least a 5% margin between matched and mismatched response.
	b, err := DefaultBank(ts, 3)
	if err != nil {
		t.Fatal(err)
	}
	cc := crossCorrelation(t, b)
	for i := range cc {
		for j := range cc[i] {
			if i != j && cc[i][j] > 0.95 {
				t.Fatalf("shapes %d/%d too similar: correlation %g", i, j, cc[i][j])
			}
		}
	}
}

// normalizedCorrelation returns |⟨a, b⟩| / (‖a‖·‖b‖), the cosine
// similarity of two templates (0 when either has zero energy).
func normalizedCorrelation(a, b []complex128) float64 {
	ea, eb := dsp.Energy(a), dsp.Energy(b)
	if ea == 0 || eb == 0 {
		return 0
	}
	var acc complex128
	for i := 0; i < min(len(a), len(b)); i++ {
		acc += a[i] * cmplx.Conj(b[i])
	}
	return cmplx.Abs(acc) / math.Sqrt(ea*eb)
}

func TestMeasureTemplateConvergesToTruth(t *testing.T) {
	rng := rand.New(rand.NewPCG(60, 61))
	s, _ := ForRegister(RegisterS2)
	truth := s.Template(ts)
	// The paper logged 1000 CIRs through a 60 dB attenuator; at a healthy
	// cable SNR the averaged template must match the true shape closely.
	meas, err := MeasureTemplate(s, ts, 1000, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := normalizedCorrelation(meas, truth); got < 0.999 {
		t.Fatalf("measured template correlation %g with truth, want > 0.999", got)
	}
	// A single noisy trial is visibly worse than the 1000-trial average.
	one, err := MeasureTemplate(s, ts, 1, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if normalizedCorrelation(one, truth) >= normalizedCorrelation(meas, truth) {
		t.Fatal("averaging over trials did not improve the template estimate")
	}
}

func TestMeasureTemplateValidation(t *testing.T) {
	s, _ := ForRegister(RegisterS1)
	if _, err := MeasureTemplate(s, ts, 0, 20, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Error("zero trials must be rejected")
	}
	if _, err := MeasureTemplate(s, ts, 10, 20, nil); err == nil {
		t.Error("nil RNG must be rejected")
	}
}
