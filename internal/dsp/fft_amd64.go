package dsp

import (
	"fmt"
	"math"
	"math/bits"
)

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
func gatherFirstPassAsm(v, sig []complex128, rev []int32, w4 complex128)

//go:noescape
func stagePairRevAsm(v, twS, tw2 []complex128, rev []int32)

//go:noescape
func stagePairPeaksAsm(v, twS, tw2 []complex128, s float64, peaks []complex128)

//go:noescape
func tailRepairAsm(fp, taps, prefix []complex128, from int)

//go:noescape
func addRunAsm(dst, run []complex128, h []float64, f int)

//go:noescape
func peakScanAsm(v []complex128, s, best float64, lanes *peakLanes)

//go:noescape
func raisedCosineAsm(dst []float64, first, delay, ts, b, twoBeta, piBeta float64) (flagged uint64)

// The wrappers below are the AVX2 twins of firstPass, productFirstPass,
// gatherFirstPass, stagePair, stagePairRev, stagePairPeaks, radix2Stage
// and tailRepair. Each checks the lengths and indices its routine relies
// on before entering assembly, which has no bounds checks of its own.

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

// gatherFirstPassAVX2: the kernel reads sig only below its length (+0
// beyond) and masks every rev entry it reads to a block inside v, so it
// stays inside its slices whatever the table holds.
func gatherFirstPassAVX2(v, sig []complex128, rev []int32, w4 complex128) {
	if len(v) < 4 || len(v)%4 != 0 || len(rev) != len(v) {
		panic(fmt.Sprintf("dsp: AVX2 gathered first pass on %d samples with a %d-entry table", len(v), len(rev)))
	}
	gatherFirstPassAsm(v, sig, rev, w4)
}

// lastPairLen panics unless v is one block of a stage pair with the given
// twiddles, len(v) = 4·len(twS), as the kernels of a plan's final pass
// take it.
func lastPairLen(what string, v, twS, tw2 []complex128) {
	half := len(twS)
	if half < 2 || half%2 != 0 || len(tw2) != 2*half || len(v) != 4*half {
		panic(fmt.Sprintf("dsp: AVX2 %s on %d samples with %d and %d twiddles", what, len(v), half, len(tw2)))
	}
}

// stagePairRevAVX2: the kernel masks every rev entry it reads to a group
// inside v, so it stays inside its slices whatever the table holds.
func stagePairRevAVX2(v, twS, tw2 []complex128, rev []int32) {
	lastPairLen("bit-reversed stage pair", v, twS, tw2)
	if len(twS)%4 != 0 || len(rev) != len(v) {
		panic(fmt.Sprintf("dsp: AVX2 bit-reversed stage pair on %d samples with a %d-entry table", len(v), len(rev)))
	}
	stagePairRevAsm(v, twS, tw2, rev)
}

// stagePairPeaksAVX2 needs quarters of whole peak blocks.
func stagePairPeaksAVX2(v, twS, tw2 []complex128, s float64, peaks []complex128) {
	lastPairLen("peak-recording stage pair", v, twS, tw2)
	if len(twS)%peakBlock != 0 || len(peaks) != len(v)/peakBlock {
		panic(fmt.Sprintf("dsp: AVX2 peak-recording stage pair on %d samples into %d records", len(v), len(peaks)))
	}
	stagePairPeaksAsm(v, twS, tw2, s, peaks)
}

// tailRepairAVX2 is the AVX2 twin of tailRepair: tailRepair computes the
// first len(fp) mod 4 outputs, which have the fewest terms, and the
// kernel the rest in groups of 4. Outputs do not depend on each other.
func tailRepairAVX2(fp, taps, prefix []complex128) {
	if len(fp) > len(taps) || len(fp) > len(prefix) {
		panic(fmt.Sprintf("dsp: AVX2 tail repair of %d outputs from %d taps and %d prefix samples", len(fp), len(taps), len(prefix)))
	}
	r := len(fp) % 4
	tailRepair(fp[:r], taps, prefix)
	if r < len(fp) {
		tailRepairAsm(fp, taps, prefix, r)
	}
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

// pulseRunMax is the most samples one raisedCosineAsm call fills: its
// flagged lanes come back as the bits of one uint64.
const pulseRunMax = 64

// raisedCosineAVX2 is the AVX2 twin of raisedCosineRun. The kernel fills
// runs of up to pulseRunMax samples, four at a time, and a ragged last
// group through a local array; the lanes it flags (a zero x,
// RaisedCosine's nudge, a NaN or ±Inf, an argument of sin or cos at or
// above Go's reduceThreshold) are recomputed by RaisedCosine. The kernel
// steps the sample index in float64, exact while |first| and
// |first+len(dst)| stay within 2^52; runs beyond that take the Go loop.
func raisedCosineAVX2(dst []float64, b, beta float64, first int, delay, ts float64) {
	if first < -1<<52 || first > 1<<52-len(dst) {
		raisedCosineRun(dst, b, beta, first, delay, ts)
		return
	}
	twoBeta, piBeta := 2*beta, math.Pi*beta
	for len(dst) > 0 {
		run := dst[:min(len(dst), pulseRunMax)]
		var flagged uint64
		n := len(run) &^ 3
		if n > 0 {
			flagged = raisedCosineAsm(run[:n], float64(first), delay, ts, b, twoBeta, piBeta)
		}
		if n < len(run) {
			var tail [4]float64
			f := raisedCosineAsm(tail[:], float64(first+n), delay, ts, b, twoBeta, piBeta)
			flagged |= (f << n) & (1<<len(run) - 1) // the tail's lanes inside run
			copy(run[n:], tail[:])
		}
		for ; flagged != 0; flagged &= flagged - 1 {
			k := bits.TrailingZeros64(flagged)
			run[k] = RaisedCosine(b, beta, (float64(first+k)-delay)*ts)
		}
		dst, first = dst[len(run):], first+len(run)
	}
}

func kernelLenError(what string, n, block int) string {
	return fmt.Sprintf("dsp: AVX2 %s on %d samples, not a positive multiple of %d", what, n, block)
}
