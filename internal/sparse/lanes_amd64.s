//go:build amd64 && !purego

#include "textflag.h"

// The PanelWidth = 8 lanes of a panel row are 64 bytes: lanes 0–3 in one
// YMM register, lanes 4–7 in the next. Every operation below is the Go
// reference's, lane by lane and in its order; operand order follows the Go
// expression too (for a·b the first source is a), so which NaN propagates
// when two meet is the same as well.

// absmask clears the sign bit: a panel row is all zero when the OR of its
// two halves, masked, is zero.
DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8

// func laneDotsAVX2(d *[8]float64, q, x []float64)
// d[k] += q[i*8+k]*x[i*8+k] for each row i in order.
TEXT ·laneDotsAVX2(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ q_base+8(FP), SI
	MOVQ x_base+32(FP), DX
	MOVQ x_len+40(FP), CX
	SHLQ $3, CX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	XORQ AX, AX
	CMPQ AX, CX
	JGE  dots_done

dots_row:
	VMOVUPD (SI)(AX*1), Y2
	VMOVUPD 32(SI)(AX*1), Y3
	VMULPD  (DX)(AX*1), Y2, Y2
	VMULPD  32(DX)(AX*1), Y3, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	ADDQ    $64, AX
	CMPQ    AX, CX
	JL      dots_row

dots_done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func laneAxpyDotAVX2(d *[8]float64, x []float64, a *[8]float64, p, q []float64)
// r = x + a*p; x = r; s += q*r, lane by lane, s from +0; d = s.
TEXT ·laneAxpyDotAVX2(SB), NOSPLIT, $0-88
	MOVQ d+0(FP), DI
	MOVQ x_base+8(FP), BX
	MOVQ x_len+16(FP), CX
	MOVQ a+32(FP), R8
	MOVQ p_base+40(FP), SI
	MOVQ q_base+64(FP), DX
	SHLQ $3, CX
	VMOVUPD (R8), Y4
	VMOVUPD 32(R8), Y5
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	XORQ    AX, AX
	CMPQ    AX, CX
	JGE     axpydot_done

axpydot_row:
	VMULPD  (SI)(AX*1), Y4, Y2
	VMULPD  32(SI)(AX*1), Y5, Y3
	VMOVUPD (BX)(AX*1), Y6
	VMOVUPD 32(BX)(AX*1), Y7
	VADDPD  Y2, Y6, Y6
	VADDPD  Y3, Y7, Y7
	VMOVUPD Y6, (BX)(AX*1)
	VMOVUPD Y7, 32(BX)(AX*1)
	VMOVUPD (DX)(AX*1), Y2
	VMOVUPD 32(DX)(AX*1), Y3
	VMULPD  Y6, Y2, Y2
	VMULPD  Y7, Y3, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	ADDQ    $64, AX
	CMPQ    AX, CX
	JL      axpydot_row

axpydot_done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func mulPanelRowsAVX2(rowPtr, colIdx []int, val, dst, x []float64)
// Row i of dst = Σ val[p]·(row colIdx[p] of x) over p in rowPtr[i]..rowPtr[i+1],
// in order, each lane summed from +0.
TEXT ·mulPanelRowsAVX2(SB), NOSPLIT, $0-120
	MOVQ rowPtr_base+0(FP), SI
	MOVQ rowPtr_len+8(FP), CX
	MOVQ colIdx_base+24(FP), R8
	MOVQ val_base+48(FP), R9
	MOVQ dst_base+72(FP), DI
	MOVQ x_base+96(FP), DX
	DECQ CX
	MOVQ (SI), R10

mul_row:
	TESTQ  CX, CX
	JLE    mul_done
	MOVQ   8(SI), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPQ   R10, R11
	JGE    mul_store

mul_nz:
	MOVQ         (R8)(R10*8), BX
	SHLQ         $6, BX
	VBROADCASTSD (R9)(R10*8), Y2
	VMULPD       (DX)(BX*1), Y2, Y3
	VMULPD       32(DX)(BX*1), Y2, Y4
	VADDPD       Y3, Y0, Y0
	VADDPD       Y4, Y1, Y1
	INCQ         R10
	CMPQ         R10, R11
	JL           mul_nz

mul_store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $8, SI
	DECQ    CX
	JMP     mul_row

mul_done:
	VZEROUPPER
	RET

// func cholForwardAVX2(colPtr, rowIdx []int, val, w []float64)
// For each column j: z = (row j of w)/L[j][j], stored; unless every lane of
// z is ±0, row i of w -= L[i][j]·z for each subdiagonal entry in order.
TEXT ·cholForwardAVX2(SB), NOSPLIT, $0-96
	MOVQ         colPtr_base+0(FP), SI
	MOVQ         colPtr_len+8(FP), CX
	MOVQ         rowIdx_base+24(FP), R8
	MOVQ         val_base+48(FP), R9
	MOVQ         w_base+72(FP), DI
	VBROADCASTSD absmask<>(SB), Y15
	DECQ         CX
	MOVQ         DI, R12
	MOVQ         (SI), R10

fwd_col:
	TESTQ        CX, CX
	JLE          fwd_done
	MOVQ         8(SI), R11
	VBROADCASTSD (R9)(R10*8), Y2
	VMOVUPD      (R12), Y0
	VMOVUPD      32(R12), Y1
	VDIVPD       Y2, Y0, Y0
	VDIVPD       Y2, Y1, Y1
	VMOVUPD      Y0, (R12)
	VMOVUPD      Y1, 32(R12)
	VORPD        Y1, Y0, Y3
	VPTEST       Y15, Y3
	JZ           fwd_next
	INCQ         R10
	CMPQ         R10, R11
	JGE          fwd_next

fwd_nz:
	MOVQ         (R8)(R10*8), BX
	SHLQ         $6, BX
	VBROADCASTSD (R9)(R10*8), Y4
	VMULPD       Y0, Y4, Y5
	VMULPD       Y1, Y4, Y6
	VMOVUPD      (DI)(BX*1), Y7
	VMOVUPD      32(DI)(BX*1), Y8
	VSUBPD       Y5, Y7, Y7
	VSUBPD       Y6, Y8, Y8
	VMOVUPD      Y7, (DI)(BX*1)
	VMOVUPD      Y8, 32(DI)(BX*1)
	INCQ         R10
	CMPQ         R10, R11
	JL           fwd_nz

fwd_next:
	MOVQ R11, R10
	ADDQ $8, SI
	ADDQ $64, R12
	DECQ CX
	JMP  fwd_col

fwd_done:
	VZEROUPPER
	RET

// func cholBackAVX2(colPtr, rowIdx []int, val, sig, w []float64)
// For each column j from last to first: s = sig[j]·(row j of w), then
// s -= L[i][j]·(row i of w) for each subdiagonal entry in order, then row j
// of w = s/L[j][j].
TEXT ·cholBackAVX2(SB), NOSPLIT, $0-120
	MOVQ colPtr_base+0(FP), SI
	MOVQ colPtr_len+8(FP), CX
	MOVQ rowIdx_base+24(FP), R8
	MOVQ val_base+48(FP), R9
	MOVQ sig_base+72(FP), R13
	MOVQ w_base+96(FP), DI
	DECQ CX
	JLE  back_done
	LEAQ -8(SI)(CX*8), SI
	LEAQ -8(R13)(CX*8), R13
	MOVQ CX, R12
	SHLQ $6, R12
	LEAQ -64(DI)(R12*1), R12

back_col:
	MOVQ         (SI), R10
	MOVQ         8(SI), R11
	VBROADCASTSD (R13), Y2
	VMULPD       (R12), Y2, Y0
	VMULPD       32(R12), Y2, Y1
	VBROADCASTSD (R9)(R10*8), Y3
	INCQ         R10
	CMPQ         R10, R11
	JGE          back_div

back_nz:
	MOVQ         (R8)(R10*8), BX
	SHLQ         $6, BX
	VBROADCASTSD (R9)(R10*8), Y4
	VMULPD       (DI)(BX*1), Y4, Y5
	VMULPD       32(DI)(BX*1), Y4, Y6
	VSUBPD       Y5, Y0, Y0
	VSUBPD       Y6, Y1, Y1
	INCQ         R10
	CMPQ         R10, R11
	JL           back_nz

back_div:
	VDIVPD  Y3, Y0, Y0
	VDIVPD  Y3, Y1, Y1
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 32(R12)
	SUBQ    $8, SI
	SUBQ    $8, R13
	SUBQ    $64, R12
	DECQ    CX
	JG      back_col

back_done:
	VZEROUPPER
	RET
