package dsp

import "math"

// RaisedCosine returns the impulse response of a raised-cosine filter of
// bandwidth b and roll-off beta at time t (seconds from the peak), whose
// peak is 1: sinc(x)·cos(πβx)/(1 − (2βx)²) with x = b·t. It is the one
// definition of the pulse formula: pulse.Shape.Eval calls it, and
// RaisedCosineRun's kernel reproduces it bit for bit.
func RaisedCosine(b, beta, t float64) float64 {
	x := b * t
	den := 1 - (2*beta*x)*(2*beta*x)
	if math.Abs(den) < 1e-9 {
		// Nudge off the removable singularity at |t| = 1/(2·beta·B).
		x += 1e-6
		den = 1 - (2*beta*x)*(2*beta*x)
	}
	return sinc(x) * math.Cos(math.Pi*beta*x) / den
}

// sinc is the normalized sinc function sin(pi x)/(pi x).
func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// RaisedCosineRun sets dst[k] = RaisedCosine(b, beta, (float64(first+k) −
// delay)·ts) for every k: the pulse peaking at the fractional sample
// position delay, sampled at interval ts over the run of sample indices
// first … first+len(dst)−1. The values equal RaisedCosine's bit for bit.
// Where the CPU has AVX2 a kernel computes four samples at a time
// (raisedCosineAsm); elsewhere each sample is one RaisedCosine call.
func RaisedCosineRun(dst []float64, b, beta float64, first int, delay, ts float64) {
	if haveAVX2 {
		raisedCosineAVX2(dst, b, beta, first, delay, ts)
		return
	}
	raisedCosineRun(dst, b, beta, first, delay, ts)
}

// raisedCosineRun is RaisedCosineRun's Go loop.
func raisedCosineRun(dst []float64, b, beta float64, first int, delay, ts float64) {
	for k := range dst {
		dst[k] = RaisedCosine(b, beta, (float64(first+k)-delay)*ts)
	}
}
