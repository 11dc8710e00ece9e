#include "textflag.h"

// func rowAVX(row, x []float64, p, c, lo float64)
//
// For i < len(row) &^ 7: row[i] += max(min(x[i], p) - c, lo). Eight columns
// per iteration in two YMM registers; len(x) >= len(row) is the caller's
// contract. MINPD and MAXPD return their second source when both operands
// are zeros, so the operand order below matters only for the sign of a zero
// term, which cannot reach a sum (see vectorStep).
TEXT ·rowAVX(SB), NOSPLIT, $0-72
	MOVQ         row_base+0(FP), DI
	MOVQ         row_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD p+48(FP), Y0
	VBROADCASTSD c+56(FP), Y1
	VBROADCASTSD lo+64(FP), Y2
	SHRQ         $3, CX
	JZ           done

loop:
	VMOVUPD (SI), Y3
	VMOVUPD 32(SI), Y4
	VMINPD  Y0, Y3, Y3
	VMINPD  Y0, Y4, Y4
	VSUBPD  Y1, Y3, Y3
	VSUBPD  Y1, Y4, Y4
	VMAXPD  Y2, Y3, Y3
	VMAXPD  Y2, Y4, Y4
	VADDPD  (DI), Y3, Y3
	VADDPD  32(DI), Y4, Y4
	VMOVUPD Y3, (DI)
	VMOVUPD Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET

// func cpuHasAVX() bool
//
// CPUID leaf 1 must report OSXSAVE (ECX bit 27) and AVX (ECX bit 28), and
// XCR0 must show that the OS saves SSE (bit 1) and YMM (bit 2) state.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
