#include "textflag.h"

// func filterIDsLE4AVX2(a *[4]float64, b float64, data []float64, ids []uint32, out []uint32) (done, n int)
//
// Four ids a step: each id's row is one 32-byte load, the 4×4 block
// is transposed into one vector per coordinate, and every lane sums
// ((a0·x + a1·y) + a2·z) + a3·w with separate multiplies and adds
// (no FMA), the association and rounding of vecmath.Dot. The step
// stops before a group that names a row past len(data)/4, so done is
// where the caller's Go loop resumes.
TEXT ·filterIDsLE4AVX2(SB), NOSPLIT, $0-104
	MOVQ         a+0(FP), AX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD b+8(FP), Y12
	MOVQ         data_base+16(FP), DX
	MOVQ         data_len+24(FP), R11
	SHRQ         $2, R11                 // complete rows in data
	MOVQ         ids_base+40(FP), SI
	MOVQ         ids_len+48(FP), CX
	MOVQ         out_base+64(FP), DI
	XORQ         R10, R10                // ids done
	XORQ         BX, BX                  // offsets written

loop:
	LEAQ 4(R10), AX
	CMPQ AX, CX
	JGT  ret
	MOVL 0(SI)(R10*4), R8
	MOVL 4(SI)(R10*4), R9
	MOVL 8(SI)(R10*4), R12
	MOVL 12(SI)(R10*4), R13
	CMPQ R8, R11
	JCC  ret
	CMPQ R9, R11
	JCC  ret
	CMPQ R12, R11
	JCC  ret
	CMPQ R13, R11
	JCC  ret
	SHLQ $5, R8
	SHLQ $5, R9
	SHLQ $5, R12
	SHLQ $5, R13

	VMOVUPD    (DX)(R8*1), Y0    // x0 y0 z0 w0
	VMOVUPD    (DX)(R9*1), Y1    // x1 y1 z1 w1
	VMOVUPD    (DX)(R12*1), Y2   // x2 y2 z2 w2
	VMOVUPD    (DX)(R13*1), Y3   // x3 y3 z3 w3
	VUNPCKLPD  Y1, Y0, Y4        // x0 x1 z0 z1
	VUNPCKHPD  Y1, Y0, Y5        // y0 y1 w0 w1
	VUNPCKLPD  Y3, Y2, Y6        // x2 x3 z2 z3
	VUNPCKHPD  Y3, Y2, Y7        // y2 y3 w2 w3
	VPERM2F128 $0x20, Y6, Y4, Y0 // x0 x1 x2 x3
	VPERM2F128 $0x20, Y7, Y5, Y1 // y0 y1 y2 y3
	VPERM2F128 $0x31, Y6, Y4, Y2 // z0 z1 z2 z3
	VPERM2F128 $0x31, Y7, Y5, Y3 // w0 w1 w2 w3

	VMULPD    Y8, Y0, Y0
	VMULPD    Y9, Y1, Y1
	VADDPD    Y1, Y0, Y0
	VMULPD    Y10, Y2, Y2
	VADDPD    Y2, Y0, Y0
	VMULPD    Y11, Y3, Y3
	VADDPD    Y3, Y0, Y0
	VCMPPD    $2, Y12, Y0, Y0    // ordered s <= b: false on NaN
	VMOVMSKPD Y0, AX
	TESTL     AX, AX
	JZ        next

emit:
	BSFL AX, R8
	ADDL R10, R8
	MOVL R8, (DI)(BX*4)
	INCQ BX
	LEAL -1(AX), R9
	ANDL R9, AX
	JNZ  emit

next:
	ADDQ $4, R10
	JMP  loop

ret:
	VZEROUPPER
	MOVQ R10, done+88(FP)
	MOVQ BX, n+96(FP)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
