package dsp

import "fmt"

// haveAVX2 reports whether this CPU executes AVX2 and the operating system
// saves the YMM registers across context switches (CPUID plus XGETBV,
// checked once per process). newFFTPlan and NewUpsamplePlan record it on
// every plan, and a plan that has it runs its hot loops on the AVX2
// kernels of fft_amd64.s.
var haveAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the upper YMM state.
	if xgetbv()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

//go:noescape
func firstPassAsm(v []complex128, w4 complex128)

//go:noescape
func productFirstPassAsm(v, ar, br []complex128, w4 complex128)

//go:noescape
func stagePairAsm(v, twS, tw2 []complex128)

//go:noescape
func radix2StageAsm(v, stage []complex128)

//go:noescape
func addRunAsm(dst, run []complex128, h []float64, f int)

//go:noescape
func peakScanAsm(v []complex128, s, best float64, lanes *peakLanes)

// The wrappers below are the AVX2 twins of firstPass, productFirstPass,
// stagePair and radix2Stage. Each checks the lengths its routine relies on
// before entering assembly, which has no bounds checks of its own.

func firstPassAVX2(v []complex128, w4 complex128) {
	if len(v) < 4 || len(v)%4 != 0 {
		panic(kernelLenError("first pass", len(v), 4))
	}
	firstPassAsm(v, w4)
}

func productFirstPassAVX2(v, ar, br []complex128, w4 complex128) {
	if len(v) < 4 || len(v)%4 != 0 || len(ar) != len(v) || len(br) != len(v) {
		panic(fmt.Sprintf("dsp: AVX2 product pass on %d samples with operands of %d and %d", len(v), len(ar), len(br)))
	}
	productFirstPassAsm(v, ar, br, w4)
}

func stagePairAVX2(v, twS, tw2 []complex128) {
	half := len(twS)
	if half < 2 || half%2 != 0 || len(tw2) != 2*half {
		panic(fmt.Sprintf("dsp: AVX2 stage pair with %d and %d twiddles", half, len(tw2)))
	}
	if len(v) == 0 || len(v)%(4*half) != 0 {
		panic(kernelLenError("stage pair", len(v), 4*half))
	}
	stagePairAsm(v, twS, tw2)
}

func radix2StageAVX2(v, stage []complex128) {
	half := len(stage)
	if half < 2 || half%2 != 0 {
		panic(fmt.Sprintf("dsp: AVX2 radix-2 stage with %d twiddles", half))
	}
	if len(v) == 0 || len(v)%(2*half) != 0 {
		panic(kernelLenError("radix-2 stage", len(v), 2*half))
	}
	radix2StageAsm(v, stage)
}

// addRunAVX2 is the AVX2 twin of addRun: the kernel takes the outputs in
// blocks of 8 and addRun the rest.
func addRunAVX2(dst, run []complex128, h []float64, f int) {
	if len(run) == 0 || f < 1 || len(h) < len(dst)+f*(len(run)-1) {
		panic(fmt.Sprintf("dsp: AVX2 segment update of %d outputs by %d terms at stride %d from %d kernel samples",
			len(dst), len(run), f, len(h)))
	}
	n := len(dst) &^ 7
	if n > 0 {
		addRunAsm(dst[:n], run, h, f)
	}
	if n < len(dst) {
		addRun(dst[n:], run, h[n:], f)
	}
}

// peakLanes receives peakScanAsm's eight lanes: each lane's running
// maximum and the index of its first occurrence, −1 while no sample of the
// lane has beaten the starting value.
type peakLanes struct {
	sq  [8]float64
	idx [8]int64
}

// peakScanAVX2 is the AVX2 twin of peakScan: the kernel scans the samples
// in blocks of 8, the lowest index among the lanes holding the maximum
// wins, and peakScan continues over the rest.
func peakScanAVX2(v []complex128, s, best float64) (int, float64) {
	idx := -1
	n := len(v) &^ 7
	if n > 0 {
		var lanes peakLanes
		peakScanAsm(v[:n], s, best, &lanes)
		for l, i := range lanes.idx {
			// A lane with an index beat the starting value, so the
			// first such lane always wins here.
			if i < 0 {
				continue
			}
			if sq := lanes.sq[l]; sq > best || sq == best && int(i) < idx {
				idx, best = int(i), sq
			}
		}
	}
	if i, sq := peakScan(v[n:], s, best); i >= 0 {
		idx, best = n+i, sq
	}
	return idx, best
}

func kernelLenError(what string, n, block int) string {
	return fmt.Sprintf("dsp: AVX2 %s on %d samples, not a positive multiple of %d", what, n, block)
}
