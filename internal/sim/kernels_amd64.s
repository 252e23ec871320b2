//go:build amd64 && !purego

#include "textflag.h"

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
