#include "textflag.h"

// AVX2 kernels of the detector's hot loops. The butterfly routines are the
// Go loops of the same name in plan.go (firstPass, productFirstPass,
// gatherFirstPass, stagePair, stagePairRev, stagePairPeaks, radix2Stage)
// run two complex128 lanes per YMM register. Every butterfly sees the same
// operands in the same order as the Go loop, every add, subtract and
// multiply is one IEEE double operation (no FMA), and the unit-twiddle
// butterflies stay multiply-free, so results are bit-identical to the Go
// kernels. tailRepairAsm (SpectralBank.ScanBest's tailRepair), addRunAsm
// (UpsamplePlan.AddSegment's addRun) and peakScanAsm (ScanBest's
// peakScan) follow at the end under the same rules. The Go wrappers in
// fft_amd64.go check every length before entering; a routine reads and
// writes only inside its slices, whatever its index table holds.
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

// A 16-byte zero sample: gatherFirstPassAsm's padding past the signal.
DATA gatherZero<>+0(SB)/8, $0
DATA gatherZero<>+8(SB)/8, $0
GLOBL gatherZero<>(SB), RODATA|NOPTR, $16

// GATHER_ADDR sets reg to the address of the sample at byte offset off
// of sig (SI; R12 is len(sig) in bytes), or of the zero sample at R13
// where off is not below the length. The compare is unsigned.
#define GATHER_ADDR(off, reg) \
	CMPQ      off, R12           \
	; LEAQ    (SI)(off*1), reg   \
	; CMOVQCC R13, reg

// func gatherFirstPassAsm(v, sig []complex128, rev []int32, w4 complex128)
//
// gatherFirstPass with the blocks taken in the order of their first
// sample: for c < n/4 the block at v[rev[c]] (a multiple of 4, as c's
// top two bits are clear) reads x0..x3 = sig[c], sig[c+n/2], sig[c+n/4],
// sig[c+3n/4] (GATHER_ADDR), so the loads run along four sequential
// streams and each block is one 64-byte store. rev[c] is masked to a
// multiple of 4 below n, which keeps the true table's entries and every
// store inside v. FIRST2 runs the butterflies as firstPassAsm does.
TEXT ·gatherFirstPassAsm(SB), NOSPLIT, $0-88
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), R11
	MOVQ sig_base+24(FP), SI
	MOVQ sig_len+32(FP), R12
	MOVQ rev_base+48(FP), R8
	VBROADCASTSD w4_real+72(FP), Y12
	VBROADCASTSD w4_imag+80(FP), Y13
	W4
	LEAQ -4(R11), CX         // n − 4
	SHLQ $2, R11             // n/4 samples, in bytes
	SHLQ $4, R12             // len(sig) in bytes
	LEAQ gatherZero<>(SB), R13
	XORQ AX, AX              // c, in bytes

gatherLoop:
	GATHER_ADDR(AX, BX)
	LEAQ        (AX)(R11*2), R10
	GATHER_ADDR(R10, DX)
	VMOVUPD     (BX), X0
	VINSERTF128 $1, (DX), Y0, Y0
	LEAQ        (AX)(R11*1), R10
	GATHER_ADDR(R10, R9)
	ADDQ        R11, R10
	ADDQ        R11, R10
	GATHER_ADDR(R10, DX)
	VMOVUPD     (R9), X1
	VINSERTF128 $1, (DX), Y1, Y1
	FIRST2(Y0, Y1)
	MOVLQZX     (R8), R10
	ANDQ        CX, R10
	SHLQ        $4, R10
	VMOVUPD     Y0, (DI)(R10*1)
	VMOVUPD     Y1, 32(DI)(R10*1)
	ADDQ        $16, AX
	ADDQ        $4, R8
	CMPQ        AX, R11
	JB          gatherLoop
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

// REV_BLOCKS regroups PAIR_OUT's four output pairs by butterfly: with
// q[j], q[j+s] in Y8, Y9 and q[j+half], q[j+s+half] in Y10, Y11 (each for
// j and j+1), butterfly j's block [q[j], q[j+s], q[j+half], q[j+s+half]]
// ends in Y12, Y13 and j+1's in Y8, Y10.
#define REV_BLOCKS \
	VPERM2F128   $0x20, Y9, Y8, Y12   \
	; VPERM2F128 $0x31, Y9, Y8, Y8    \
	; VPERM2F128 $0x20, Y11, Y10, Y13 \
	; VPERM2F128 $0x31, Y11, Y10, Y10

// PAIR_REV is one stage-pair iteration of stagePairRevAsm on butterflies
// j, j+1 (AX = 16·j): PAIR_IN and PAIR_MID, then PAIR_OUT's last
// butterfly (tw2[j+half] at R8) into Y10, Y11 instead of memory, and
// REV_BLOCKS.
#define PAIR_REV \
	PAIR_IN                         \
	; PAIR_MID                      \
	; VADDPD      Y6, Y1, Y8        \
	; VSUBPD      Y6, Y1, Y9        \
	; VMOVUPD     (R8)(AX*1), Y4    \
	; VPERMILPD   $5, Y4, Y5        \
	; CMUL(Y2, Y4, Y5, Y6, Y7, Y6)  \
	; VADDPD      Y6, Y0, Y10       \
	; VSUBPD      Y6, Y0, Y11       \
	; REV_BLOCKS

// STORE_BLOCKS stores butterfly j's block (Y12, Y13) at a and j+1's (Y8,
// Y10) at b, each a 64-byte destination given by its two halves.
#define STORE_BLOCKS(a0, a1, b0, b1) \
	VMOVUPD   Y12, a0 \
	; VMOVUPD Y13, a1 \
	; VMOVUPD Y8, b0  \
	; VMOVUPD Y10, b1

// GROUP_BUF computes the group of butterflies at byte offset off (j =
// off/16 … j+3) into the stack buffer: the blocks of j, j+2, j+1, j+3 go
// to quarters 0, 1, 2, 3 of their destination, buffer slots 0-3.
#define GROUP_BUF(off) \
	MOVQ   off, AX                                                    \
	; PAIR_REV                                                        \
	; STORE_BLOCKS(buf-256(SP), buf-224(SP), buf-128(SP), buf-96(SP)) \
	; ADDQ $32, AX                                                    \
	; PAIR_REV                                                        \
	; STORE_BLOCKS(buf-192(SP), buf-160(SP), buf-64(SP), buf-32(SP))

// BUF_TO_V copies the stack buffer's four blocks to quarters 0-3 of v at
// byte offset off.
#define BUF_TO_V(off) \
	VMOVUPD   buf-256(SP), Y0       \
	; VMOVUPD buf-224(SP), Y1       \
	; VMOVUPD buf-192(SP), Y2       \
	; VMOVUPD buf-160(SP), Y3       \
	; VMOVUPD buf-128(SP), Y4       \
	; VMOVUPD buf-96(SP), Y5        \
	; VMOVUPD buf-64(SP), Y6        \
	; VMOVUPD buf-32(SP), Y7        \
	; VMOVUPD Y0, (DI)(off*1)       \
	; VMOVUPD Y1, 32(DI)(off*1)     \
	; VMOVUPD Y2, (R9)(off*1)       \
	; VMOVUPD Y3, 32(R9)(off*1)     \
	; VMOVUPD Y4, (R10)(off*1)      \
	; VMOVUPD Y5, 32(R10)(off*1)    \
	; VMOVUPD Y6, (R11)(off*1)      \
	; VMOVUPD Y7, 32(R11)(off*1)

// func stagePairRevAsm(v, twS, tw2 []complex128, rev []int32)
//
// stagePairRev: stagePairAsm's butterflies on the one block v (len(v) =
// 4·half), each output stored at its bit-reversed position in v itself.
// The butterflies go in groups of four, g = j/4: group g's outputs are
// the blocks at rev[4g] + 0, n/2, n/4 and 3n/4, that is offset g' =
// rev[4g]/4 of each quarter, exactly where group g' reads its inputs,
// and g'' = g. So each group is taken with its partner: group g into the
// stack buffer, then g' straight to g's places, then the buffer to g''s
// (a group that is its own partner goes through the buffer alone; a
// group whose partner came first is passed over). CX is 64·g, R13 64·g'
// (rev[4g] masked to a multiple of 4 below half, which keeps the true
// table's entries and every access inside v and the twiddles), R12
// walks rev by 4. Group 0 holds j = 0, whose twiddles are exactly 1+0i.
TEXT ·stagePairRevAsm(SB), NOSPLIT, $256-96
	MOVQ v_base+0(FP), DI
	MOVQ twS_base+24(FP), SI
	MOVQ twS_len+32(FP), BX
	MOVQ tw2_base+48(FP), DX
	MOVQ rev_base+72(FP), R12
	SHLQ $4, BX              // half, in bytes
	LEAQ (DX)(BX*1), R8      // tw2[half:]
	LEAQ (DI)(BX*1), R9      // q[half:]
	LEAQ (R9)(BX*1), R10     // q[s:]
	LEAQ (R10)(BX*1), R11    // q[s+half:]
	XORQ AX, AX
	PAIR_IN
	VBLENDPD $3, Y1, Y6, Y6  // j = 0: t1 = a1
	VBLENDPD $3, Y3, Y8, Y8  // j = 0: t3 = a3
	PAIR_MID
	VBLENDPD $3, Y3, Y6, Y6  // j = 0: t = b2
	VADDPD      Y6, Y1, Y8
	VSUBPD      Y6, Y1, Y9
	VMOVUPD     (R8)(AX*1), Y4
	VPERMILPD   $5, Y4, Y5
	CMUL(Y2, Y4, Y5, Y6, Y7, Y6)
	VADDPD      Y6, Y0, Y10
	VSUBPD      Y6, Y0, Y11
	REV_BLOCKS
	STORE_BLOCKS(buf-256(SP), buf-224(SP), buf-128(SP), buf-96(SP))
	MOVQ $32, AX
	PAIR_REV
	STORE_BLOCKS(buf-192(SP), buf-160(SP), buf-64(SP), buf-32(SP))
	XORQ CX, CX
	BUF_TO_V(CX)             // group 0 is its own partner

revGroup:
	ADDQ    $64, CX
	ADDQ    $16, R12
	CMPQ    CX, BX
	JAE     revDone
	MOVLQZX (R12), R13
	SHLQ    $4, R13
	LEAQ    -64(BX), AX
	ANDQ    AX, R13
	CMPQ    R13, CX
	JB      revGroup         // done with its partner
	GROUP_BUF(CX)
	CMPQ    R13, CX
	JEQ     revOwn
	MOVQ    R13, AX
	PAIR_REV
	STORE_BLOCKS((DI)(CX*1), 32(DI)(CX*1), (R10)(CX*1), 32(R10)(CX*1))
	ADDQ    $32, AX
	PAIR_REV
	STORE_BLOCKS((R9)(CX*1), 32(R9)(CX*1), (R11)(CX*1), 32(R11)(CX*1))

revOwn:
	BUF_TO_V(R13)
	JMP revGroup

revDone:
	VZEROUPPER
	RET

// PAIR_OUT_PEAK is PAIR_OUT with the epilogue of stagePairPeaksAsm. It
// keeps the outputs q[j], q[j+s] (Y8, Y9) and q[j+half], q[j+s+half]
// (Y1, Y3) after storing them, scales them by s (Y12) and squares their
// components and adds re² + im² with VHADDPD, as peakScanAsm does: Y8 =
// [q[j], q[j+half], q[j+1], q[j+1+half]] and Y9 the same from q[j+s].
// VMAXPD keeps each lane's running maximum in Y10 and Y11; it returns its
// second operand, the maximum, when the new value is NaN or not larger,
// the ordered strict > of peakScan.
#define PAIR_OUT_PEAK \
	VADDPD      Y6, Y1, Y8         \
	; VSUBPD    Y6, Y1, Y9         \
	; VMOVUPD   Y8, (DI)(AX*1)     \
	; VMOVUPD   Y9, (R10)(AX*1)    \
	; VMOVUPD   (R8)(AX*1), Y4     \
	; VPERMILPD $5, Y4, Y5         \
	; CMUL(Y2, Y4, Y5, Y6, Y7, Y6) \
	; VADDPD    Y6, Y0, Y1         \
	; VSUBPD    Y6, Y0, Y3         \
	; VMOVUPD   Y1, (R9)(AX*1)     \
	; VMOVUPD   Y3, (R11)(AX*1)    \
	; VMULPD    Y12, Y8, Y8        \
	; VMULPD    Y12, Y1, Y1        \
	; VMULPD    Y12, Y9, Y9        \
	; VMULPD    Y12, Y3, Y3        \
	; VMULPD    Y8, Y8, Y8         \
	; VMULPD    Y1, Y1, Y1         \
	; VMULPD    Y9, Y9, Y9         \
	; VMULPD    Y3, Y3, Y3         \
	; VHADDPD   Y1, Y8, Y8         \
	; VHADDPD   Y3, Y9, Y9         \
	; VMAXPD    Y10, Y8, Y10       \
	; VMAXPD    Y11, Y9, Y11

// PEAK_EMIT ends a block after 8 iterations (16 outputs per quarter): the
// maxima of the even-j and odd-j lanes of each quarter merge into
// [q0, q1, q2, q3] (neither holds NaN, so VMAXPD is their maximum), and
// the records [max, 0] of quarters 0-3 go to CX + 0, 1, 2 and 3 strides
// (R12 bytes). CX moves to the next block and the maxima restart at 0.
#define PEAK_EMIT \
	VPERM2F128     $0x20, Y11, Y10, Y0 \
	; VPERM2F128   $0x31, Y11, Y10, Y1 \
	; VMAXPD       Y1, Y0, Y0          \
	; VXORPD       Y2, Y2, Y2          \
	; VUNPCKLPD    Y2, Y0, Y1          \
	; VUNPCKHPD    Y2, Y0, Y3          \
	; VMOVUPD      X1, (CX)            \
	; VMOVUPD      X3, (CX)(R12*1)     \
	; VEXTRACTF128 $1, Y1, (CX)(R12*2) \
	; LEAQ         (CX)(R12*2), R13    \
	; VEXTRACTF128 $1, Y3, (R13)(R12*1) \
	; ADDQ         $16, CX             \
	; VXORPD       Y10, Y10, Y10       \
	; VXORPD       Y11, Y11, Y11

// func stagePairPeaksAsm(v, twS, tw2 []complex128, s float64, peaks []complex128)
//
// stagePairPeaks: stagePairAsm's butterflies on the one block v (len(v) =
// 4·half, half a multiple of 16), with each 16-output block's peak
// recorded from the outputs in registers (PAIR_OUT_PEAK, PEAK_EMIT).
// The quarters q[0:half], q[half:s], q[s:s+half], q[s+half:] advance
// together, so every 8 iterations close one block in each; quarter k's
// records start at peaks[k·half/16].
TEXT ·stagePairPeaksAsm(SB), NOSPLIT, $0-104
	MOVQ         v_base+0(FP), DI
	MOVQ         twS_base+24(FP), SI
	MOVQ         twS_len+32(FP), BX
	MOVQ         tw2_base+48(FP), DX
	VBROADCASTSD s+72(FP), Y12
	MOVQ         peaks_base+80(FP), CX
	MOVQ         BX, R12          // half/16 records of 16 bytes per quarter
	SHLQ         $4, BX           // half, in bytes
	LEAQ         (DX)(BX*1), R8   // tw2[half:]
	LEAQ         (DI)(BX*1), R9   // q[half:]
	LEAQ         (R9)(BX*1), R10  // q[s:]
	LEAQ         (R10)(BX*1), R11 // q[s+half:]
	VXORPD       Y10, Y10, Y10
	VXORPD       Y11, Y11, Y11
	XORQ         AX, AX
	PAIR_IN
	VBLENDPD     $3, Y1, Y6, Y6   // j = 0: t1 = a1
	VBLENDPD     $3, Y3, Y8, Y8   // j = 0: t3 = a3
	PAIR_MID
	VBLENDPD     $3, Y3, Y6, Y6   // j = 0: t = b2
	PAIR_OUT_PEAK
	MOVQ         $32, AX

peakInner:
	PAIR_IN
	PAIR_MID
	PAIR_OUT_PEAK
	ADDQ  $32, AX
	TESTQ $255, AX
	JNZ   peakInner
	PEAK_EMIT
	CMPQ  AX, BX
	JB    peakInner
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

// TAIL_TERM adds taps[k]·b to acc for both lanes, b = [prefix[i],
// prefix[i+1]] loaded from off(R10), with taps[k]'s parts broadcast in Y2
// (re) and Y3 (im): [re·b.re − im·b.im, re·b.im + im·b.re] as CMUL forms
// Go's complex multiply, then acc + product. t0 and t1 are scratch.
#define TAIL_TERM(off, acc, t0, t1) \
	VMOVUPD     off(R10), t0 \
	; VPERMILPD $5, t0, t1   \
	; VMULPD    t0, Y2, t0   \
	; VMULPD    t1, Y3, t1   \
	; VADDSUBPD t1, t0, t0   \
	; VADDPD    t0, acc, acc

// TAIL_LAST adds taps[k]·prefix[0] to the complex128 in x, with taps[k]
// at off(R9): the last term of an accumulator's upper output alone.
// X8 holds prefix[0] and X9 the same with re and im swapped.
#define TAIL_LAST(off, x) \
	VMOVDDUP    off(R9), X2  \
	; VMOVDDUP  off+8(R9), X3 \
	; VMULPD    X8, X2, X2   \
	; VMULPD    X9, X3, X3   \
	; VADDSUBPD X3, X2, X2   \
	; VADDPD    X2, x, x

// func tailRepairAsm(fp, taps, prefix []complex128, from int)
//
// tailRepair on the outputs fp[from:], len(fp) − from a multiple of 4,
// four per group j..j+3 in two accumulators: Y0 = [fp[j], fp[j+1]] and
// Y1 = [fp[j+2], fp[j+3]], each term loading the two prefix samples its
// lanes need. Both take the terms k ≤ j together; Y1 then takes k = j+1
// and j+2, and each accumulator's upper output its last term alone
// (TAIL_LAST). Every output thus adds its terms in ascending k to a zero
// start, as tailRepair does. R9 walks taps up and R10 prefix[j−k] down.
TEXT ·tailRepairAsm(SB), NOSPLIT, $0-80
	MOVQ    fp_base+0(FP), DI
	MOVQ    fp_len+8(FP), CX
	MOVQ    taps_base+24(FP), SI
	MOVQ    prefix_base+48(FP), DX
	MOVQ    from+72(FP), R8
	VMOVUPD (DX), X8
	VPERMILPD $1, X8, X9

tailGroup:
	CMPQ   R8, CX
	JAE    tailDone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, R9
	MOVQ   R8, R10
	SHLQ   $4, R10
	ADDQ   DX, R10
	LEAQ   1(R8), R11        // terms k = 0..j

tailTerm:
	VBROADCASTSD (R9), Y2
	VBROADCASTSD 8(R9), Y3
	TAIL_TERM(0, Y0, Y4, Y5)
	TAIL_TERM(32, Y1, Y6, Y7)
	ADDQ         $16, R9
	SUBQ         $16, R10
	DECQ         R11
	JNZ          tailTerm

	MOVQ $2, R11             // Y1's terms k = j+1, j+2

tailTermHi:
	VBROADCASTSD (R9), Y2
	VBROADCASTSD 8(R9), Y3
	TAIL_TERM(32, Y1, Y6, Y7)
	ADDQ         $16, R9
	SUBQ         $16, R10
	DECQ         R11
	JNZ          tailTermHi

	VEXTRACTF128 $1, Y0, X10
	TAIL_LAST(-32, X10)      // fp[j+1]: k = j+1
	VEXTRACTF128 $1, Y1, X11
	TAIL_LAST(0, X11)        // fp[j+3]: k = j+3
	MOVQ         R8, R10
	SHLQ         $4, R10
	VMOVUPD      X0, (DI)(R10*1)
	VMOVUPD      X10, 16(DI)(R10*1)
	VMOVUPD      X1, 32(DI)(R10*1)
	VMOVUPD      X11, 48(DI)(R10*1)
	ADDQ         $4, R8
	JMP          tailGroup

tailDone:
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
	VMOVQ        AX, X7              // VEX-encoded: a legacy MOVQ stalls on the dirty upper halves
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

// PULSE_CONST defines name<> as four copies of the float64 with the given
// bits: one 32-byte vector, so raisedCosineAsm reads every constant as a
// memory operand.
#define PULSE_CONST(name, bits) \
	DATA   name<>+0(SB)/8, bits  \
	; DATA name<>+8(SB)/8, bits  \
	; DATA name<>+16(SB)/8, bits \
	; DATA name<>+24(SB)/8, bits \
	; GLOBL name<>(SB), RODATA|NOPTR, $32

DATA pulseLanes<>+0(SB)/8, $0x0000000000000000 // 0, 1, 2, 3
DATA pulseLanes<>+8(SB)/8, $0x3ff0000000000000
DATA pulseLanes<>+16(SB)/8, $0x4000000000000000
DATA pulseLanes<>+24(SB)/8, $0x4008000000000000
GLOBL pulseLanes<>(SB), RODATA|NOPTR, $32

PULSE_CONST(pulseFour, $0x4010000000000000)       // 4
PULSE_CONST(pulseOne, $0x3ff0000000000000)        // 1
PULSE_CONST(pulseHalf, $0x3fe0000000000000)       // 0.5
PULSE_CONST(pulseQuarter, $0x3fd0000000000000)    // 0.25
PULSE_CONST(pulseEighth, $0x3fc0000000000000)     // 0.125
PULSE_CONST(pulseAbs, $0x7fffffffffffffff)        // all bits but the sign
PULSE_CONST(pulseSign, $0x8000000000000000)       // the sign bit
PULSE_CONST(pulseTiny, $0x3e112e0be826d695)       // 1e-9, Eval's nudge bound
PULSE_CONST(pulseLimit, $0x41c0000000000000)      // 2^29, math's reduceThreshold
PULSE_CONST(pulsePi, $0x400921fb54442d18)         // math.Pi
PULSE_CONST(pulseFourOverPi, $0x3ff45f306dc9c883) // 4/math.Pi
PULSE_CONST(pulsePi4A, $0x3fe921fb40000000)       // math's PI4A, PI4B, PI4C
PULSE_CONST(pulsePi4B, $0x3e64442d00000000)
PULSE_CONST(pulsePi4C, $0x3ce8469898cc5170)
PULSE_CONST(pulseSin0, $0x3de5d8fd1fd19ccd)       // math's _sin
PULSE_CONST(pulseSin1, $0xbe5ae5e5a9291f5d)
PULSE_CONST(pulseSin2, $0x3ec71de3567d48a1)
PULSE_CONST(pulseSin3, $0xbf2a01a019bfdf03)
PULSE_CONST(pulseSin4, $0x3f8111111110f7d0)
PULSE_CONST(pulseSin5, $0xbfc5555555555548)
PULSE_CONST(pulseCos0, $0xbda8fa49a0861a9b)       // math's _cos
PULSE_CONST(pulseCos1, $0x3e21ee9d7b4e3f05)
PULSE_CONST(pulseCos2, $0xbe927e4f7eac4bc6)
PULSE_CONST(pulseCos3, $0x3efa01a019c844f5)
PULSE_CONST(pulseCos4, $0xbf56c16c16c14f91)
PULSE_CONST(pulseCos5, $0x3fa555555555554b)

// REDUCE is the argument reduction of Go's math.sin and math.cos below
// reduceThreshold on the four lanes of a = |u|: j = trunc(a·4/π)
// (VROUNDPD $3), an odd j raised by one to y, and the Cody–Waite
// z = ((a − y·PI4A) − y·PI4B) − y·PI4C, left in a. y is even, so its
// octant y mod 8 is 0, 2, 4 or 6: swap gets the lanes of octant 2 or 6
// (y/4 not whole), where math takes the other polynomial, and hi those
// of octant 4 or 6 (frac(y/8) ≥ 1/2), where math flips the sign. Every
// step is exact on these integers below 2^31. t and r are scratch; hi
// may be y.
#define REDUCE(a, y, t, r, swap, hi) \
	VMULPD     pulseFourOverPi<>(SB), a, y \
	; VROUNDPD $3, y, y                    \
	; VMULPD   pulseHalf<>(SB), y, t       \
	; VROUNDPD $1, t, r                    \
	; VCMPPD   $0x04, r, t, t              \
	; VANDPD   pulseOne<>(SB), t, t        \
	; VADDPD   t, y, y                     \
	; VMULPD   pulsePi4A<>(SB), y, t       \
	; VSUBPD   t, a, a                     \
	; VMULPD   pulsePi4B<>(SB), y, t       \
	; VSUBPD   t, a, a                     \
	; VMULPD   pulsePi4C<>(SB), y, t       \
	; VSUBPD   t, a, a                     \
	; VMULPD   pulseQuarter<>(SB), y, t    \
	; VROUNDPD $1, t, r                    \
	; VCMPPD   $0x04, r, t, swap           \
	; VMULPD   pulseEighth<>(SB), y, t     \
	; VROUNDPD $1, t, r                    \
	; VSUBPD   r, t, t                     \
	; VCMPPD   $0x1D, pulseHalf<>(SB), t, hi

// POLYS evaluates both of math's polynomials on the reduced z, in Go's
// association and with every product rounded on its own:
// s = z + (z·zz)·P_sin(zz) and c = (1 − 0.5·zz) + (zz·zz)·P_cos(zz), each
// P a Horner chain ((((k0·zz + k1)·zz + k2)·zz + k3)·zz + k4)·zz + k5.
// zz and t are scratch; z is clobbered.
#define POLYS(z, zz, s, c, t) \
	VMULPD   z, z, zz               \
	; VMULPD pulseSin0<>(SB), zz, s \
	; VADDPD pulseSin1<>(SB), s, s  \
	; VMULPD zz, s, s               \
	; VADDPD pulseSin2<>(SB), s, s  \
	; VMULPD zz, s, s               \
	; VADDPD pulseSin3<>(SB), s, s  \
	; VMULPD zz, s, s               \
	; VADDPD pulseSin4<>(SB), s, s  \
	; VMULPD zz, s, s               \
	; VADDPD pulseSin5<>(SB), s, s  \
	; VMULPD pulseCos0<>(SB), zz, c \
	; VADDPD pulseCos1<>(SB), c, c  \
	; VMULPD zz, c, c               \
	; VADDPD pulseCos2<>(SB), c, c  \
	; VMULPD zz, c, c               \
	; VADDPD pulseCos3<>(SB), c, c  \
	; VMULPD zz, c, c               \
	; VADDPD pulseCos4<>(SB), c, c  \
	; VMULPD zz, c, c               \
	; VADDPD pulseCos5<>(SB), c, c  \
	; VMULPD zz, z, t               \
	; VMULPD s, t, t                \
	; VADDPD t, z, s                \
	; VMULPD zz, zz, t              \
	; VMULPD c, t, t                \
	; VMULPD pulseHalf<>(SB), zz, zz \
	; VMOVUPD pulseOne<>(SB), z     \
	; VSUBPD zz, z, z               \
	; VADDPD t, z, c

// func raisedCosineAsm(dst []float64, first, delay, ts, b, twoBeta, piBeta float64) (flagged uint64)
//
// raisedCosineRun on four samples per group, len(dst) a positive multiple
// of 4 and at most 64. Y14 holds the group's sample indices
// (float64(first) + 0..3, exact below 2^53). Each lane runs RaisedCosine's
// operations in Go's order: t = (i − delay)·ts, x = b·t, den = 1 − q·q
// with q = 2β·x, sinc = sin(πx)/(πx), c = cos(πβ·x) and (sinc·c)/den, with
// math.sin and math.cos as REDUCE and POLYS compute them, the polynomial
// and sign chosen per lane by blend and XOR. The lanes left to the Go
// wrapper (x = 0, |den| < 1e-9, |πx| or |πβx| not below 2^29, which
// takes in NaN and ±Inf) set their bits of flagged, bit k for dst[k];
// their values are not defined.
TEXT ·raisedCosineAsm(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), SI
	LEAQ         (DI)(SI*8), SI              // end of dst
	VBROADCASTSD first+24(FP), Y14
	VADDPD       pulseLanes<>(SB), Y14, Y14
	XORQ         R10, R10                    // flagged
	XORQ         CX, CX                      // index of the group's first lane

pulseGroup:
	VBROADCASTSD delay+32(FP), Y5
	VSUBPD       Y5, Y14, Y0
	VBROADCASTSD ts+40(FP), Y5
	VMULPD       Y5, Y0, Y0                  // t
	VBROADCASTSD b+48(FP), Y5
	VMULPD       Y0, Y5, Y0                  // x
	VBROADCASTSD twoBeta+56(FP), Y5
	VMULPD       Y0, Y5, Y1                  // q
	VMULPD       Y1, Y1, Y1
	VMOVUPD      pulseOne<>(SB), Y5
	VSUBPD       Y1, Y5, Y1                  // den
	VMULPD       pulsePi<>(SB), Y0, Y2       // πx
	VBROADCASTSD piBeta+64(FP), Y5
	VMULPD       Y0, Y5, Y3                  // πβ·x
	VXORPD       Y5, Y5, Y5
	VCMPPD       $0x00, Y5, Y0, Y4           // x == 0
	VANDPD       pulseAbs<>(SB), Y1, Y5
	VCMPPD       $0x11, pulseTiny<>(SB), Y5, Y5  // |den| < 1e-9
	VORPD        Y5, Y4, Y4
	VANDPD       pulseAbs<>(SB), Y2, Y5
	VCMPPD       $0x15, pulseLimit<>(SB), Y5, Y5 // !(|πx| < 2^29)
	VORPD        Y5, Y4, Y4
	VANDPD       pulseAbs<>(SB), Y3, Y5
	VCMPPD       $0x15, pulseLimit<>(SB), Y5, Y5 // !(|πβx| < 2^29)
	VORPD        Y5, Y4, Y4
	VMOVMSKPD    Y4, AX
	SHLQ         CX, AX
	ORQ          AX, R10

	// c = cos(πβx): octants 2 and 6 take the sine polynomial, and the
	// sign flips in octants 2 and 4.
	VANDPD    pulseAbs<>(SB), Y3, Y3
	REDUCE(Y3, Y6, Y7, Y8, Y9, Y6)
	VXORPD    Y9, Y6, Y6
	VANDPD    pulseSign<>(SB), Y6, Y6
	POLYS(Y3, Y7, Y8, Y10, Y11)
	VBLENDVPD Y9, Y8, Y10, Y3
	VXORPD    Y6, Y3, Y3

	// sin(πx): octants 2 and 6 take the cosine polynomial, and the sign
	// is πx's, flipped in octants 4 and 6.
	VANDPD    pulseAbs<>(SB), Y2, Y0
	REDUCE(Y0, Y6, Y7, Y8, Y9, Y6)
	VXORPD    Y2, Y6, Y6
	VANDPD    pulseSign<>(SB), Y6, Y6
	POLYS(Y0, Y7, Y8, Y10, Y11)
	VBLENDVPD Y9, Y10, Y8, Y0
	VXORPD    Y6, Y0, Y0

	VDIVPD  Y2, Y0, Y0                       // sinc
	VMULPD  Y3, Y0, Y0
	VDIVPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  pulseFour<>(SB), Y14, Y14
	ADDQ    $32, DI
	ADDQ    $4, CX
	CMPQ    DI, SI
	JB      pulseGroup
	MOVQ    R10, flagged+72(FP)
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
