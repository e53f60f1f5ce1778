// Package dsp provides the signal-processing primitives used throughout the
// concurrent-ranging simulator: complex vector arithmetic, one plan-cached
// transform engine (a radix-2 FFT, Bluestein's algorithm for other
// lengths, FFT up-sampling, the matched-filter bank, its spectral search
// variant and the matched-filter outputs that variant keeps across
// subtractions), the raised-cosine pulse formula with a kernel that samples
// it over a run of indices, peak picking, and the statistics helpers used
// by the Monte-Carlo experiment harness.
//
// All routines operate on plain []complex128 or []float64 slices and never
// retain references to their arguments unless documented otherwise, so
// callers are free to reuse buffers.
package dsp
