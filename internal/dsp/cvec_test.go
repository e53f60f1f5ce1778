package dsp

import (
	"math"
	"math/cmplx"
	mrand "math/rand"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestAbs(t *testing.T) {
	abs := Abs([]complex128{3 + 4i, 0, -1})
	if !closeTo(abs[0], 5, 1e-12) || abs[1] != 0 || !closeTo(abs[2], 1, 1e-12) {
		t.Fatalf("Abs = %v", abs)
	}
}

func TestScale(t *testing.T) {
	v := []complex128{1, 2}
	Scale(v, 2i)
	if v[0] != 2i || v[1] != 4i {
		t.Fatalf("Scale = %v", v)
	}
}

func TestEnergyAndNormalization(t *testing.T) {
	v := []complex128{3, 4i}
	if got := Energy(v); !closeTo(got, 25, 1e-12) {
		t.Fatalf("Energy = %g", got)
	}
	NormalizeEnergy(v)
	if got := Energy(v); !closeTo(got, 1, 1e-12) {
		t.Fatalf("normalized energy = %g", got)
	}
	// Zero vectors must survive normalization unchanged.
	z := []complex128{0, 0}
	NormalizeEnergy(z)
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector mutated")
	}
	r := []float64{0, 0}
	NormalizeEnergyReal(r)
	if r[0] != 0 {
		t.Fatal("zero real vector mutated")
	}
}

// TestConjReverseClone checks MatchedFilterTaps directly — the
// conjugated, time-reversed template of Sect. IV step 2 — on known values,
// and that Clone returns an independent copy.
func TestConjReverseClone(t *testing.T) {
	v := []complex128{1 + 1i, 2 - 2i, -3i}
	taps := MatchedFilterTaps(v)
	if want := []complex128{3i, 2 + 2i, 1 - 1i}; !slices.Equal(taps, want) {
		t.Fatalf("MatchedFilterTaps = %v, want %v", taps, want)
	}
	taps[0] = 99
	if v[2] == 99 {
		t.Fatal("MatchedFilterTaps aliases its input")
	}
	cl := Clone(v)
	cl[0] = 99
	if v[0] == 99 {
		t.Fatal("Clone aliases input")
	}
}

// TestReverseIsInvolutionProperty checks on random signals that
// MatchedFilterTaps is the conjugate of v in reverse order, and that
// applying it twice restores the input bit for bit.
func TestReverseIsInvolutionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 13))
		v := randSignal(r, r.IntN(100))
		taps := MatchedFilterTaps(v)
		for i, c := range v {
			if taps[len(v)-1-i] != cmplx.Conj(c) {
				return false
			}
		}
		return slices.Equal(MatchedFilterTaps(taps), v)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: mrand.New(mrand.NewSource(48))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyIsScaleQuadraticProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 17))
		v := randSignal(r, 1+r.IntN(100))
		e := Energy(v)
		e2 := Energy(Scale(Clone(v), 2))
		return closeTo(e2, 4*e, 1e-9*(1+4*e)) && !math.IsNaN(e)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: mrand.New(mrand.NewSource(49))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
