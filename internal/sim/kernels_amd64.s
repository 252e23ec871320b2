//go:build amd64 && !purego

#include "textflag.h"

// func axpyRealAVX2(y, zr, zi []float64, a, c float64)
// y[i] += zr[i]*a - zi[i]*c, 256-bit lanes, strict mul/mul/sub/add order —
// the per-lane sequence of the Go reference, no FMA contraction.
TEXT ·axpyRealAVX2(SB), NOSPLIT, $0-88
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ zr_base+24(FP), SI
	MOVQ zi_base+48(FP), DX
	VBROADCASTSD a+72(FP), Y0
	VBROADCASTSD c+80(FP), Y1
	XORQ AX, AX

axpy_blk8:
	MOVQ CX, BX
	SUBQ AX, BX
	CMPQ BX, $8
	JL   axpy_blk4
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y5
	VMOVUPD (DX)(AX*8), Y3
	VMOVUPD 32(DX)(AX*8), Y6
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y5, Y5
	VMULPD  Y1, Y3, Y3
	VMULPD  Y1, Y6, Y6
	VSUBPD  Y3, Y2, Y2
	VSUBPD  Y6, Y5, Y5
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y7
	VADDPD  Y2, Y4, Y4
	VADDPD  Y5, Y7, Y7
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y7, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     axpy_blk8

axpy_blk4:
	MOVQ CX, BX
	SUBQ AX, BX
	CMPQ BX, $4
	JL   axpy_tail
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DX)(AX*8), Y3
	VMULPD  Y0, Y2, Y2
	VMULPD  Y1, Y3, Y3
	VSUBPD  Y3, Y2, Y2
	VMOVUPD (DI)(AX*8), Y4
	VADDPD  Y2, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX

axpy_tail:
	CMPQ AX, CX
	JGE  axpy_done
	VMOVSD (SI)(AX*8), X2
	VMOVSD (DX)(AX*8), X3
	VMULSD X0, X2, X2
	VMULSD X1, X3, X3
	VSUBSD X3, X2, X2
	VMOVSD (DI)(AX*8), X4
	VADDSD X2, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    axpy_tail

axpy_done:
	VZEROUPPER
	RET

// func stepModesAVX2(zr, zi, u0, u1 []float64, er, ei, f0r, f0i, f1r, f1i float64)
// zr' = ((er*zr - ei*zi) + u0*f0r) + u1*f1r
// zi' = ((er*zi + ei*zr) + u0*f0i) + u1*f1i
TEXT ·stepModesAVX2(SB), NOSPLIT, $0-144
	MOVQ zr_base+0(FP), DI
	MOVQ zr_len+8(FP), CX
	MOVQ zi_base+24(FP), SI
	MOVQ u0_base+48(FP), DX
	MOVQ u1_base+72(FP), R8
	VBROADCASTSD er+96(FP), Y10
	VBROADCASTSD ei+104(FP), Y11
	VBROADCASTSD f0r+112(FP), Y12
	VBROADCASTSD f0i+120(FP), Y13
	VBROADCASTSD f1r+128(FP), Y14
	VBROADCASTSD f1i+136(FP), Y15
	XORQ AX, AX

step_blk4:
	MOVQ CX, BX
	SUBQ AX, BX
	CMPQ BX, $4
	JL   step_tail
	VMOVUPD (DI)(AX*8), Y2  // a = zr
	VMOVUPD (SI)(AX*8), Y3  // b = zi
	VMOVUPD (DX)(AX*8), Y4  // u0
	VMOVUPD (R8)(AX*8), Y5  // u1
	VMULPD  Y10, Y2, Y6     // er*a
	VMULPD  Y11, Y3, Y7     // ei*b
	VSUBPD  Y7, Y6, Y6
	VMULPD  Y12, Y4, Y7     // u0*f0r
	VADDPD  Y7, Y6, Y6
	VMULPD  Y14, Y5, Y7     // u1*f1r
	VADDPD  Y7, Y6, Y6      // tr
	VMULPD  Y10, Y3, Y8     // er*b
	VMULPD  Y11, Y2, Y9     // ei*a
	VADDPD  Y9, Y8, Y8
	VMULPD  Y13, Y4, Y9     // u0*f0i
	VADDPD  Y9, Y8, Y8
	VMULPD  Y15, Y5, Y9     // u1*f1i
	VADDPD  Y9, Y8, Y8      // ti
	VMOVUPD Y6, (DI)(AX*8)
	VMOVUPD Y8, (SI)(AX*8)
	ADDQ    $4, AX
	JMP     step_blk4

step_tail:
	CMPQ AX, CX
	JGE  step_done
	VMOVSD (DI)(AX*8), X2
	VMOVSD (SI)(AX*8), X3
	VMOVSD (DX)(AX*8), X4
	VMOVSD (R8)(AX*8), X5
	VMULSD X10, X2, X6
	VMULSD X11, X3, X7
	VSUBSD X7, X6, X6
	VMULSD X12, X4, X7
	VADDSD X7, X6, X6
	VMULSD X14, X5, X7
	VADDSD X7, X6, X6
	VMULSD X10, X3, X8
	VMULSD X11, X2, X9
	VADDSD X9, X8, X8
	VMULSD X13, X4, X9
	VADDSD X9, X8, X8
	VMULSD X15, X5, X9
	VADDSD X9, X8, X8
	VMOVSD X6, (DI)(AX*8)
	VMOVSD X8, (SI)(AX*8)
	INCQ   AX
	JMP    step_tail

step_done:
	VZEROUPPER
	RET

// func accumBlockAVX2(yb, zr, zi, rr, ri []float64, q, p, ns int)
// for k < q, r < p: yb[r*ns:] += zr[k*ns:]*rr[k*p+r] - zi[k*ns:]*ri[k*p+r]
// Same per-lane op order as axpyRealAVX2, with the (mode, row) loops fused
// into the one call. Caller guarantees the slices cover q·ns / p·ns / q·p.
TEXT ·accumBlockAVX2(SB), NOSPLIT, $0-144
	MOVQ yb_base+0(FP), R9
	MOVQ zr_base+24(FP), SI
	MOVQ zi_base+48(FP), DX
	MOVQ rr_base+72(FP), R10
	MOVQ ri_base+96(FP), R11
	MOVQ q+120(FP), R12
	MOVQ ns+136(FP), CX

accum_k:
	TESTQ R12, R12
	JZ    accum_done
	MOVQ  R9, DI           // y row = yb
	MOVQ  p+128(FP), R13

accum_r:
	TESTQ R13, R13
	JZ    accum_k_next
	VBROADCASTSD (R10), Y0 // rr[k*p+r]
	VBROADCASTSD (R11), Y1 // ri[k*p+r]
	XORQ  AX, AX

accum_blk8:
	MOVQ CX, BX
	SUBQ AX, BX
	CMPQ BX, $8
	JL   accum_blk4
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y5
	VMOVUPD (DX)(AX*8), Y3
	VMOVUPD 32(DX)(AX*8), Y6
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y5, Y5
	VMULPD  Y1, Y3, Y3
	VMULPD  Y1, Y6, Y6
	VSUBPD  Y3, Y2, Y2
	VSUBPD  Y6, Y5, Y5
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y7
	VADDPD  Y2, Y4, Y4
	VADDPD  Y5, Y7, Y7
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y7, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     accum_blk8

accum_blk4:
	MOVQ CX, BX
	SUBQ AX, BX
	CMPQ BX, $4
	JL   accum_tail
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DX)(AX*8), Y3
	VMULPD  Y0, Y2, Y2
	VMULPD  Y1, Y3, Y3
	VSUBPD  Y3, Y2, Y2
	VMOVUPD (DI)(AX*8), Y4
	VADDPD  Y2, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX

accum_tail:
	CMPQ AX, CX
	JGE  accum_r_next
	VMOVSD (SI)(AX*8), X2
	VMOVSD (DX)(AX*8), X3
	VMULSD X0, X2, X2
	VMULSD X1, X3, X3
	VSUBSD X3, X2, X2
	VMOVSD (DI)(AX*8), X4
	VADDSD X2, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    accum_tail

accum_r_next:
	ADDQ $8, R10           // next residue entry
	ADDQ $8, R11
	LEAQ (DI)(CX*8), DI    // next output row
	DECQ R13
	JMP  accum_r

accum_k_next:
	LEAQ (SI)(CX*8), SI    // next mode row of zr/zi
	LEAQ (DX)(CX*8), DX
	DECQ R12
	JMP  accum_k

accum_done:
	VZEROUPPER
	RET
