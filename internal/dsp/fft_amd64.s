#include "textflag.h"

// AVX2 kernels of the detector's hot loops. The butterfly routines are the
// Go loops of the same name in plan.go (firstPass, productFirstPass,
// stagePair, radix2Stage) run two complex128 lanes per YMM register. Every
// butterfly sees the same operands in the same order as the Go loop, every
// add, subtract and multiply is one IEEE double operation (no FMA), and the
// unit-twiddle butterflies stay multiply-free, so results are bit-identical
// to the Go kernels. addRunAsm (UpsamplePlan.AddSegment's addRun) and
// peakScanAsm (SpectralBank.ScanBest's peakScan) follow at the end under
// the same rules. The Go wrappers in fft_amd64.go check every length
// before entering; a routine reads and writes only inside its slices.
//
// Register layout: a YMM register holds two complex128 values,
// [re0, im0, re1, im1]; lanes 0-1 are the first value, lanes 2-3 the
// second. Y15 is left alone (the Go ABI keeps zero there).

// CMUL sets dst = a·b for both complex lanes, where bsw is b with re and im
// swapped. It forms a.re·b = [a.re·b.re, a.re·b.im] and
// a.im·bsw = [a.im·b.im, a.im·b.re], each product rounded on its own, and
// VADDSUBPD combines them into [a.re·b.re − a.im·b.im, a.re·b.im + a.im·b.re]:
// Go's complex128 multiply, operand for operand. t0 and t1 are scratch;
// dst may be t0.
#define CMUL(a, b, bsw, t0, t1, dst) \
	VMOVDDUP  a, t0       \
	; VPERMILPD $0xF, a, t1 \
	; VMULPD    b, t0, t0   \
	; VMULPD    bsw, t1, t1 \
	; VADDSUBPD t1, t0, dst

// FIRST2 runs the fused size-2 and size-4 stages on one 4-sample block,
// x01 = [x0, x1] and x23 = [x2, x3], leaving [q0, q1] in x01 and [q2, q3]
// in x23. Y14 holds [w4, w4] and Y13 the same with re and im swapped;
// Y2-Y7 are scratch. The size-2 butterflies pair lanes across the 128-bit
// halves, so VPERM2F128 regroups them first; only the size-4 k = 1
// butterfly multiplies (by w4), and VBLENDPD keeps its k = 0 partner b1
// unmultiplied.
#define FIRST2(x01, x23) \
	VPERM2F128 $0x20, x23, x01, Y2      \
	; VPERM2F128 $0x31, x23, x01, Y3    \
	; VADDPD     Y3, Y2, Y4             \
	; VSUBPD     Y3, Y2, Y5             \
	; CMUL(Y5, Y14, Y13, Y6, Y7, Y6)    \
	; VBLENDPD   $0x0C, Y6, Y5, Y6      \
	; VPERM2F128 $0x20, Y6, Y4, Y2      \
	; VPERM2F128 $0x31, Y6, Y4, Y3      \
	; VADDPD     Y3, Y2, x01            \
	; VSUBPD     Y3, Y2, x23

// W4 builds the Y14 and Y13 operands of FIRST2 from w4.re broadcast in
// Y12 and w4.im broadcast in Y13.
#define W4 \
	VBLENDPD   $0x0A, Y13, Y12, Y14 \
	; VBLENDPD $0x05, Y13, Y12, Y13

// func firstPassAsm(v []complex128, w4 complex128)
TEXT ·firstPassAsm(SB), NOSPLIT, $0-40
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	VBROADCASTSD w4_real+24(FP), Y12
	VBROADCASTSD w4_imag+32(FP), Y13
	W4
	SHLQ $4, CX
	ADDQ DI, CX

firstLoop:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	FIRST2(Y0, Y1)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	CMPQ    DI, CX
	JB      firstLoop
	VZEROUPPER
	RET

// func productFirstPassAsm(v, ar, br []complex128, w4 complex128)
TEXT ·productFirstPassAsm(SB), NOSPLIT, $0-88
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ ar_base+24(FP), SI
	MOVQ br_base+48(FP), DX
	VBROADCASTSD w4_real+72(FP), Y12
	VBROADCASTSD w4_imag+80(FP), Y13
	W4
	SHLQ $4, CX
	XORQ AX, AX

productLoop:
	VMOVUPD   (SI)(AX*1), Y8
	VMOVUPD   (DX)(AX*1), Y9
	VPERMILPD $5, Y9, Y10
	CMUL(Y8, Y9, Y10, Y0, Y11, Y0)
	VMOVUPD   32(SI)(AX*1), Y8
	VMOVUPD   32(DX)(AX*1), Y9
	VPERMILPD $5, Y9, Y10
	CMUL(Y8, Y9, Y10, Y1, Y11, Y1)
	FIRST2(Y0, Y1)
	VMOVUPD   Y0, (DI)(AX*1)
	VMOVUPD   Y1, 32(DI)(AX*1)
	ADDQ      $64, AX
	CMPQ      AX, CX
	JB        productLoop
	VZEROUPPER
	RET

// One radix-2² stage pair on the j, j+1 butterflies of the block at DI,
// with R9, R10 and R11 at its q[half], q[s] and q[s+half] and AX the byte
// offset of j. PAIR_IN loads a0..a3 into Y0..Y3 and forms t1 = a1·w1 in
// Y6 and t3 = a3·w1 in Y8; PAIR_MID leaves b0, b1, b2, b3 in Y1, Y0, Y3,
// Y2 and t = b2·tw2[j] in Y6; PAIR_OUT stores q[j], q[j+s], then forms
// t = b3·tw2[j+half] (R8 is tw2[half:]) and stores q[j+half],
// q[j+s+half]. Between the three, the j = 0 block blends the lanes whose
// twiddle is exactly 1+0i back to their unmultiplied operands.
#define PAIR_IN \
	VMOVUPD     (DI)(AX*1), Y0     \
	; VMOVUPD   (R9)(AX*1), Y1     \
	; VMOVUPD   (R10)(AX*1), Y2    \
	; VMOVUPD   (R11)(AX*1), Y3    \
	; VMOVUPD   (SI)(AX*1), Y4     \
	; VPERMILPD $5, Y4, Y5         \
	; CMUL(Y1, Y4, Y5, Y6, Y7, Y6) \
	; CMUL(Y3, Y4, Y5, Y8, Y9, Y8)

#define PAIR_MID \
	VADDPD      Y6, Y0, Y1         \
	; VSUBPD    Y6, Y0, Y0         \
	; VADDPD    Y8, Y2, Y3         \
	; VSUBPD    Y8, Y2, Y2         \
	; VMOVUPD   (DX)(AX*1), Y4     \
	; VPERMILPD $5, Y4, Y5         \
	; CMUL(Y3, Y4, Y5, Y6, Y7, Y6)

#define PAIR_OUT \
	VADDPD      Y6, Y1, Y8         \
	; VSUBPD    Y6, Y1, Y9         \
	; VMOVUPD   Y8, (DI)(AX*1)     \
	; VMOVUPD   Y9, (R10)(AX*1)    \
	; VMOVUPD   (R8)(AX*1), Y4     \
	; VPERMILPD $5, Y4, Y5         \
	; CMUL(Y2, Y4, Y5, Y6, Y7, Y6) \
	; VADDPD    Y6, Y0, Y8         \
	; VSUBPD    Y6, Y0, Y9         \
	; VMOVUPD   Y8, (R9)(AX*1)     \
	; VMOVUPD   Y9, (R11)(AX*1)

// func stagePairAsm(v, twS, tw2 []complex128)
TEXT ·stagePairAsm(SB), NOSPLIT, $0-72
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ twS_base+24(FP), SI
	MOVQ twS_len+32(FP), BX
	MOVQ tw2_base+48(FP), DX
	SHLQ $4, CX
	ADDQ DI, CX              // end of v
	SHLQ $4, BX              // half, in bytes
	LEAQ (DX)(BX*1), R8      // tw2[half:]

pairBlock:
	LEAQ (DI)(BX*1), R9      // q[half:]
	LEAQ (R9)(BX*1), R10     // q[s:]
	LEAQ (R10)(BX*1), R11    // q[s+half:]
	XORQ AX, AX
	PAIR_IN
	VBLENDPD $3, Y1, Y6, Y6  // j = 0: t1 = a1
	VBLENDPD $3, Y3, Y8, Y8  // j = 0: t3 = a3
	PAIR_MID
	VBLENDPD $3, Y3, Y6, Y6  // j = 0: t = b2
	PAIR_OUT
	MOVQ $32, AX

pairInner:
	CMPQ AX, BX
	JAE  pairNext
	PAIR_IN
	PAIR_MID
	PAIR_OUT
	ADDQ $32, AX
	JMP  pairInner

pairNext:
	LEAQ (R11)(BX*1), DI
	CMPQ DI, CX
	JB   pairBlock
	VZEROUPPER
	RET

// One radix-2 butterfly pair k, k+1 of the block at DI, with R9 at its
// upper half, SI at the stage twiddles and AX the byte offset of k:
// R2_MUL loads a into Y0 and b·stage[k] into Y6, R2_OUT stores a ± that.
#define R2_MUL \
	VMOVUPD     (DI)(AX*1), Y0     \
	; VMOVUPD   (R9)(AX*1), Y1     \
	; VMOVUPD   (SI)(AX*1), Y4     \
	; VPERMILPD $5, Y4, Y5         \
	; CMUL(Y1, Y4, Y5, Y6, Y7, Y6)

#define R2_OUT \
	VADDPD    Y6, Y0, Y8       \
	; VSUBPD  Y6, Y0, Y9       \
	; VMOVUPD Y8, (DI)(AX*1)   \
	; VMOVUPD Y9, (R9)(AX*1)

// func radix2StageAsm(v, stage []complex128)
TEXT ·radix2StageAsm(SB), NOSPLIT, $0-48
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ stage_base+24(FP), SI
	MOVQ stage_len+32(FP), BX
	SHLQ $4, CX
	ADDQ DI, CX              // end of v
	SHLQ $4, BX              // half, in bytes

r2Block:
	LEAQ (DI)(BX*1), R9      // upper half of the block
	XORQ AX, AX
	R2_MUL
	VBLENDPD $3, Y1, Y6, Y6  // k = 0: b stays unmultiplied
	R2_OUT
	MOVQ $32, AX

r2Inner:
	CMPQ AX, BX
	JAE  r2Next
	R2_MUL
	R2_OUT
	ADDQ $32, AX
	JMP  r2Inner

r2Next:
	LEAQ (R9)(BX*1), DI
	CMPQ DI, CX
	JB   r2Block
	VZEROUPPER
	RET

// func addRunAsm(dst, run []complex128, h []float64, f int)
//
// addRun on 8 outputs per block, len(dst) a positive multiple of 8. The
// block's real parts sit in Y4 (outputs 0-3) and Y6 (4-7), its imaginary
// parts in Y5 and Y7: VUNPCKLPD/VUNPCKHPD split the interleaved samples
// into [0, 2, 1, 3] lane order and VPERMPD $0xD8 sorts them, so one load of
// h covers four consecutive outputs. Each term broadcasts run[j]'s parts
// into Y8 and Y9, rounds re·h and im·h on their own and adds them to the
// accumulators, as addRun does for each output. R9 walks h down by f
// samples per term; DX is h at the block's first term.
TEXT ·addRunAsm(SB), NOSPLIT, $0-80
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  run_base+24(FP), SI
	MOVQ  run_len+32(FP), BX
	MOVQ  h_base+48(FP), DX
	MOVQ  f+72(FP), R8
	SHLQ  $4, CX
	ADDQ  DI, CX             // end of dst
	LEAQ  -1(BX), AX         // len(run) − 1
	SHLQ  $4, BX             // run length in bytes
	SHLQ  $3, R8             // term stride in bytes
	IMULQ R8, AX
	ADDQ  AX, DX             // h[f·(len(run)−1)]: the first term of output 0

runBlock:
	VMOVUPD   (DI), Y0
	VMOVUPD   32(DI), Y1
	VMOVUPD   64(DI), Y2
	VMOVUPD   96(DI), Y3
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERMPD   $0xD8, Y4, Y4
	VPERMPD   $0xD8, Y5, Y5
	VPERMPD   $0xD8, Y6, Y6
	VPERMPD   $0xD8, Y7, Y7
	MOVQ      DX, R9
	XORQ      AX, AX

runTerm:
	VBROADCASTSD (SI)(AX*1), Y8
	VBROADCASTSD 8(SI)(AX*1), Y9
	VMOVUPD      (R9), Y10
	VMOVUPD      32(R9), Y11
	VMULPD       Y10, Y8, Y12
	VADDPD       Y12, Y4, Y4
	VMULPD       Y10, Y9, Y13
	VADDPD       Y13, Y5, Y5
	VMULPD       Y11, Y8, Y12
	VADDPD       Y12, Y6, Y6
	VMULPD       Y11, Y9, Y13
	VADDPD       Y13, Y7, Y7
	SUBQ         R8, R9
	ADDQ         $16, AX
	CMPQ         AX, BX
	JB           runTerm

	VPERMPD   $0xD8, Y4, Y4
	VPERMPD   $0xD8, Y5, Y5
	VPERMPD   $0xD8, Y6, Y6
	VPERMPD   $0xD8, Y7, Y7
	VUNPCKLPD Y5, Y4, Y0
	VUNPCKHPD Y5, Y4, Y1
	VUNPCKLPD Y7, Y6, Y2
	VUNPCKHPD Y7, Y6, Y3
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)
	VMOVUPD   Y2, 64(DI)
	VMOVUPD   Y3, 96(DI)
	ADDQ      $128, DI
	ADDQ      $64, DX
	CMPQ      DI, CX
	JB        runBlock
	VZEROUPPER
	RET

// Lane indices of peakScanAsm's first block: VHADDPD leaves the squared
// magnitudes of samples 0-3 in [0, 2, 1, 3] order, and of 4-7 likewise.
DATA peakLaneIdx<>+0(SB)/8, $0
DATA peakLaneIdx<>+8(SB)/8, $2
DATA peakLaneIdx<>+16(SB)/8, $1
DATA peakLaneIdx<>+24(SB)/8, $3
DATA peakLaneIdx<>+32(SB)/8, $4
DATA peakLaneIdx<>+40(SB)/8, $6
DATA peakLaneIdx<>+48(SB)/8, $5
DATA peakLaneIdx<>+56(SB)/8, $7
GLOBL peakLaneIdx<>(SB), RODATA|NOPTR, $64

// func peakScanAsm(v []complex128, s, best float64, lanes *peakLanes)
//
// peakScan on 8 samples per block, len(v) a positive multiple of 8. Each
// sample is scaled by s and squared component-wise (VMULPD) and VHADDPD
// adds re² and im², the operations of the Go loop. Eight lanes each keep
// the running maximum (Y12, Y13, starting at best) and its index (Y10,
// Y11, starting at −1) of the samples congruent to it mod 8: VCMPPD
// $0x1E is the ordered strict >, false for NaN, so a lane keeps the first
// index of its maximum. The lanes go to *lanes for the Go wrapper to
// reduce; Y8 and Y9 hold the indices of the current block's lanes.
TEXT ·peakScanAsm(SB), NOSPLIT, $0-48
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	SHLQ         $4, CX
	ADDQ         SI, CX              // end of v
	VBROADCASTSD s+24(FP), Y14
	VBROADCASTSD best+32(FP), Y12
	VMOVAPD      Y12, Y13
	VPCMPEQQ     Y10, Y10, Y10       // −1
	VMOVDQU      Y10, Y11
	VMOVDQU      peakLaneIdx<>+0(SB), Y8
	VMOVDQU      peakLaneIdx<>+32(SB), Y9
	MOVQ         $8, AX
	MOVQ         AX, X7
	VPBROADCASTQ X7, Y7

scanBlock:
	VMULPD    (SI), Y14, Y0
	VMULPD    32(SI), Y14, Y1
	VMULPD    64(SI), Y14, Y2
	VMULPD    96(SI), Y14, Y3
	VMULPD    Y0, Y0, Y0
	VMULPD    Y1, Y1, Y1
	VMULPD    Y2, Y2, Y2
	VMULPD    Y3, Y3, Y3
	VHADDPD   Y1, Y0, Y0
	VHADDPD   Y3, Y2, Y2
	VCMPPD    $0x1E, Y12, Y0, Y1
	VCMPPD    $0x1E, Y13, Y2, Y3
	VBLENDVPD Y1, Y0, Y12, Y12
	VBLENDVPD Y1, Y8, Y10, Y10
	VBLENDVPD Y3, Y2, Y13, Y13
	VBLENDVPD Y3, Y9, Y11, Y11
	VPADDQ    Y7, Y8, Y8
	VPADDQ    Y7, Y9, Y9
	ADDQ      $128, SI
	CMPQ      SI, CX
	JB        scanBlock

	MOVQ    lanes+40(FP), DI
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	VMOVDQU Y10, 64(DI)
	VMOVDQU Y11, 96(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
