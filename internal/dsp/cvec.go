package dsp

import (
	"math"
	"math/cmplx"
)

// Abs returns the element-wise magnitude of v as a new slice.
func Abs(v []complex128) []float64 {
	out := make([]float64, len(v))
	for i, c := range v {
		out[i] = cmplx.Abs(c)
	}
	return out
}

// Scale multiplies every element of v by s in place and returns v.
func Scale(v []complex128, s complex128) []complex128 {
	for i := range v {
		v[i] *= s
	}
	return v
}

// ScaleReal multiplies every element of v by the real factor s in place and
// returns v.
func ScaleReal(v []float64, s float64) []float64 {
	for i := range v {
		v[i] *= s
	}
	return v
}

// Energy returns the total energy of v, i.e. the sum of squared magnitudes.
func Energy(v []complex128) float64 {
	var e float64
	for _, c := range v {
		e += real(c)*real(c) + imag(c)*imag(c)
	}
	return e
}

// NormalizeEnergy scales v in place so that its total energy is 1 and
// returns v. A zero vector is returned unchanged.
func NormalizeEnergy(v []complex128) []complex128 {
	e := Energy(v)
	if e == 0 {
		return v
	}
	return Scale(v, complex(1/math.Sqrt(e), 0))
}

// NormalizeEnergyReal scales the real vector v in place to unit energy and
// returns v. A zero vector is returned unchanged.
func NormalizeEnergyReal(v []float64) []float64 {
	var e float64
	for _, x := range v {
		e += x * x
	}
	if e == 0 {
		return v
	}
	return ScaleReal(v, 1/math.Sqrt(e))
}

// Clone returns an independent copy of v.
func Clone(v []complex128) []complex128 {
	out := make([]complex128, len(v))
	copy(out, v)
	return out
}
