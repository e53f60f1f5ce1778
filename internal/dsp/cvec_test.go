package dsp

import (
	"math"
	mrand "math/rand"
	"math/rand/v2"
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

func TestConjReverseClone(t *testing.T) {
	v := []complex128{1 + 1i, 2 - 2i}
	c := Conj(v)
	if c[0] != 1-1i || c[1] != 2+2i {
		t.Fatalf("Conj = %v", c)
	}
	r := Reverse(v)
	if r[0] != v[1] || r[1] != v[0] {
		t.Fatalf("Reverse = %v", r)
	}
	cl := Clone(v)
	cl[0] = 99
	if v[0] == 99 {
		t.Fatal("Clone aliases input")
	}
}

func TestReverseIsInvolutionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 13))
		v := randSignal(r, r.IntN(100))
		rr := Reverse(Reverse(v))
		for i := range v {
			if rr[i] != v[i] {
				return false
			}
		}
		return true
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
