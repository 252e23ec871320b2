// Fixture assembly: one clean kernel plus one violation per policy rule.

// Clean: allowlisted opcodes only, VZEROUPPER before RET.
TEXT ·goodKernel(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	VBROADCASTSD a+24(FP), Y0
	VMOVUPD (SI), Y1
	VMULPD Y0, Y1, Y1
	VMOVUPD Y1, (SI)
	VZEROUPPER
	RET

TEXT ·fmaKernel(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	VBROADCASTSD a+24(FP), Y0
	VMOVUPD (SI), Y1
	VFMADD231PD Y0, Y1, Y1 // want "FMA opcode VFMADD231PD is forbidden"
	VMOVUPD Y1, (SI)
	VZEROUPPER
	RET

TEXT ·badOpKernel(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	VBROADCASTSD a+24(FP), Y0
	VMOVUPD (SI), Y1
	VRCPPS Y1, Y1 // want "VRCPPS is not in the policy allowlist"
	VMOVUPD Y1, (SI)
	VZEROUPPER
	RET

// Division is allowlisted (correctly rounded like Go's /); allowing it
// admits no fused multiply-add.
TEXT ·divKernel(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	VBROADCASTSD a+24(FP), Y0
	VMOVUPD (SI), Y1
	VDIVPD Y0, Y1, Y1
	VXORPD Y2, Y2, Y2
	VFMADD231PD Y0, Y1, Y2 // want "FMA opcode VFMADD231PD is forbidden"
	VMOVUPD Y1, (SI)
	VZEROUPPER
	RET

// The complex-product ops are allowlisted: VBROADCASTF128 and VPERMPD move
// data, VHSUBPD is one IEEE subtract per element. Allowing them admits no
// fused multiply-add.
TEXT ·cplxKernel(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ z_base+24(FP), DX
	VBROADCASTF128 (DX), Y0
	VMULPD (SI), Y0, Y1
	VMULPD 32(SI), Y0, Y2
	VHSUBPD Y2, Y1, Y1
	VPERMPD $0xd8, Y1, Y1
	VFMADD231PD Y0, Y1, Y2 // want "FMA opcode VFMADD231PD is forbidden"
	VMOVUPD Y1, (SI)
	VZEROUPPER
	RET

TEXT ·noVzero(SB), NOSPLIT, $0-24
	MOVQ x_base+0(FP), SI
	VMOVUPD (SI), Y1
	VADDPD Y1, Y1, Y1
	VMOVUPD Y1, (SI)
	RET // want "without a preceding VZEROUPPER"

TEXT ·wrongSize(SB), NOSPLIT, $0-24 // want "argument size is 24 bytes; Go declaration requires 32"
	RET
