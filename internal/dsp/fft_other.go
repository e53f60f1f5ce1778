//go:build !amd64

package dsp

// Other architectures have no assembly kernel: no plan records AVX2, so
// every hot loop runs in Go and the entry points below are never called.
const haveAVX2 = false

const noKernel = "dsp: no AVX2 kernel on this architecture"

func firstPassAVX2([]complex128, complex128)                             { panic(noKernel) }
func productFirstPassAVX2(_, _, _ []complex128, _ complex128)            { panic(noKernel) }
func gatherFirstPassAVX2(_, _ []complex128, _ []int32, _ complex128)     { panic(noKernel) }
func stagePairAVX2(_, _, _ []complex128)                                 { panic(noKernel) }
func stagePairRevAVX2(_, _, _ []complex128, _ []int32)                   { panic(noKernel) }
func stagePairPeaksAVX2(_, _, _ []complex128, _ float64, _ []complex128) { panic(noKernel) }
func radix2StageAVX2(_, _ []complex128)                                  { panic(noKernel) }
func tailRepairAVX2(_, _, _ []complex128)                                { panic(noKernel) }
func addRunAVX2(_, _ []complex128, _ []float64, _ int)                   { panic(noKernel) }
func peakScanAVX2(_ []complex128, _, _ float64) (int, float64)           { panic(noKernel) }
