//go:build amd64 && !purego

#include "textflag.h"

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

// func accumBlockAVX2(yb, zr, zi []float64, res []complex128, q, p, ns int)
// for k < q, r < p:
//	yb[r*ns:] += zr[k*ns:]*Re(res[k*p+r]) - zi[k*ns:]*Im(res[k*p+r])
// with strict mul/mul/sub/add order per lane, the (mode, row) loops fused
// into the one call. The residues are read in place: the real part
// broadcast from offset 0 and the imaginary part from offset 8 of each
// 16-byte entry. Caller guarantees the slices cover q·ns / p·ns / q·p.
TEXT ·accumBlockAVX2(SB), NOSPLIT, $0-120
	MOVQ yb_base+0(FP), R9
	MOVQ zr_base+24(FP), SI
	MOVQ zi_base+48(FP), DX
	MOVQ res_base+72(FP), R10
	MOVQ q+96(FP), R12
	MOVQ ns+112(FP), CX

accum_k:
	TESTQ R12, R12
	JZ    accum_done
	MOVQ  R9, DI           // y row = yb
	MOVQ  p+104(FP), R13

accum_r:
	TESTQ R13, R13
	JZ    accum_k_next
	VBROADCASTSD (R10), Y0  // Re(res[k*p+r])
	VBROADCASTSD 8(R10), Y1 // Im(res[k*p+r])
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
	ADDQ $16, R10          // next residue entry
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

// func modalAccumAVX2(y []float64, z, r []complex128)
// for k < len(z) with z[k] != 0, o < len(y):
//	y[o] += Re(r[k*p+o])*Re(z[k]) - Im(r[k*p+o])*Im(z[k])
// — Go's real(r·z) then the add, per output in mode-ascending order. Output
// chunks of 16 stay in Y0–Y3 across all of the block's modes. Each mode's
// residue row is read in place, two complex entries per VMULPD against
// [zr, zi, zr, zi]; VHSUBPD of entries (o, o+1) and (o+2, o+3) yields the
// four re·zr − im·zi terms in lane order (o, o+2, o+1, o+3), so the
// accumulators hold y in that order: VPERMPD $0xd8 (swap lanes 1 and 2, its
// own inverse) maps y in at load and back at store. A mode with z == ±0±0i
// is skipped like the Go loop: (re|im)<<1 == 0 on the raw bits catches both
// signed zeros and lets NaN through. Caller guarantees len(r) ≥ len(z)·p.
TEXT ·modalAccumAVX2(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ z_base+24(FP), SI
	MOVQ z_len+32(FP), R8
	MOVQ r_base+48(FP), R10
	TESTQ R8, R8
	JZ    macc_done
	MOVQ CX, R11
	SHLQ $4, R11           // residue row stride in bytes
	XORQ AX, AX            // first output of the current chunk

macc_blk16:
	MOVQ CX, BX
	SUBQ AX, BX
	CMPQ BX, $16
	JL   macc_blk4
	VPERMPD $0xd8, (DI)(AX*8), Y0
	VPERMPD $0xd8, 32(DI)(AX*8), Y1
	VPERMPD $0xd8, 64(DI)(AX*8), Y2
	VPERMPD $0xd8, 96(DI)(AX*8), Y3
	MOVQ SI, R12           // &z[0]
	MOVQ AX, R13
	SHLQ $4, R13
	ADDQ R10, R13          // &r[AX], row 0
	MOVQ R8, R9            // modes left

macc16_k:
	MOVQ  (R12), BX
	ORQ   8(R12), BX
	SHLQ  $1, BX
	JZ    macc16_next      // z == ±0±0i
	VBROADCASTF128 (R12), Y4
	VMULPD  (R13), Y4, Y5
	VMULPD  32(R13), Y4, Y6
	VMULPD  64(R13), Y4, Y7
	VMULPD  96(R13), Y4, Y8
	VMULPD  128(R13), Y4, Y9
	VMULPD  160(R13), Y4, Y10
	VMULPD  192(R13), Y4, Y11
	VMULPD  224(R13), Y4, Y12
	VHSUBPD Y6, Y5, Y5
	VHSUBPD Y8, Y7, Y7
	VHSUBPD Y10, Y9, Y9
	VHSUBPD Y12, Y11, Y11
	VADDPD  Y5, Y0, Y0
	VADDPD  Y7, Y1, Y1
	VADDPD  Y9, Y2, Y2
	VADDPD  Y11, Y3, Y3

macc16_next:
	ADDQ $16, R12
	ADDQ R11, R13
	DECQ R9
	JNZ  macc16_k
	VPERMPD $0xd8, Y0, Y0
	VPERMPD $0xd8, Y1, Y1
	VPERMPD $0xd8, Y2, Y2
	VPERMPD $0xd8, Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ $16, AX
	JMP  macc_blk16

macc_blk4:
	MOVQ CX, BX
	SUBQ AX, BX
	CMPQ BX, $4
	JL   macc_tail
	VPERMPD $0xd8, (DI)(AX*8), Y0
	MOVQ SI, R12
	MOVQ AX, R13
	SHLQ $4, R13
	ADDQ R10, R13
	MOVQ R8, R9

macc4_k:
	MOVQ  (R12), BX
	ORQ   8(R12), BX
	SHLQ  $1, BX
	JZ    macc4_next
	VBROADCASTF128 (R12), Y4
	VMULPD  (R13), Y4, Y5
	VMULPD  32(R13), Y4, Y6
	VHSUBPD Y6, Y5, Y5
	VADDPD  Y5, Y0, Y0

macc4_next:
	ADDQ $16, R12
	ADDQ R11, R13
	DECQ R9
	JNZ  macc4_k
	VPERMPD $0xd8, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  macc_blk4

macc_tail:
	CMPQ AX, CX
	JGE  macc_done
	VMOVSD (DI)(AX*8), X0
	MOVQ SI, R12
	MOVQ AX, R13
	SHLQ $4, R13
	ADDQ R10, R13
	MOVQ R8, R9

macc1_k:
	MOVQ  (R12), BX
	ORQ   8(R12), BX
	SHLQ  $1, BX
	JZ    macc1_next
	VMOVUPD (R12), X4      // [zr, zi]
	VMULPD  (R13), X4, X5  // [re·zr, im·zi]
	VHSUBPD X5, X5, X5
	VADDSD  X5, X0, X0

macc1_next:
	ADDQ $16, R12
	ADDQ R11, R13
	DECQ R9
	JNZ  macc1_k
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  macc_tail

macc_done:
	VZEROUPPER
	RET
