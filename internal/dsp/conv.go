package dsp

// convFFTThreshold is the product of operand lengths above which the
// matched-filter bank convolves via FFT instead of the direct O(n·m) sum.
const convFFTThreshold = 1 << 14

// convolveUseDirect decides the direct-vs-FFT routing for operand lengths
// la, lb ≥ 1. The comparison is la·lb ≤ convFFTThreshold, phrased as a
// division so the product cannot overflow int on large inputs.
func convolveUseDirect(la, lb int) bool {
	return la <= convFFTThreshold/lb
}

// MatchedFilterTaps builds the impulse response of the matched filter for
// the pulse template s, i.e. the conjugated time-reversed template
// h_MF = [s*(Np-1), s*(Np-2), ..., s*(0)] as in Sect. IV step 2 of the
// paper (the conjugation is the complex-baseband generalization).
func MatchedFilterTaps(template []complex128) []complex128 {
	return Reverse(Conj(template))
}
