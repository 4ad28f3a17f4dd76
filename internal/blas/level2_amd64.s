#include "textflag.h"

// AVX2 column-group kernel for the NoTrans Dgemv (see gemvNoTransRows in
// level2.go). Only used when cpuSupportsAVX2FMA() reports true.
//
// func gemvNoTrans4AVX(y, c0, c1, c2, c3 []float64, t *[4]float64)
//
// For every i < len(y):
//
//	y[i] = (((y[i] + t0·c0[i]) + t1·c1[i]) + t2·c2[i]) + t3·c3[i]
//
// Each product and each sum is rounded separately (VMULPD then VADDPD, never
// FMA), and every instruction keeps the operand order of the compiled Go
// loop `y[i] += t*c[i]`: the product's first source is c, the sum's first
// source is the product. So results, including which NaN payload survives,
// are bit-identical to applying the four columns one Go axpy at a time.
// Rows go 8 at a time (two independent vector chains), then 4, then 1.
TEXT ·gemvNoTrans4AVX(SB), NOSPLIT, $0-128
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ c0_base+24(FP), R8
	MOVQ c1_base+48(FP), R9
	MOVQ c2_base+72(FP), R10
	MOVQ c3_base+96(FP), R11
	MOVQ t+120(FP), AX

	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3

	XORQ BX, BX               // row index
	MOVQ CX, DX
	ANDQ $-8, DX              // rows covered by the 8-row loop
	JZ   quad

loop8:
	VMOVUPD (R8)(BX*8), Y4
	VMOVUPD 32(R8)(BX*8), Y5
	VMULPD  Y0, Y4, Y4
	VMULPD  Y0, Y5, Y5
	VADDPD  (DI)(BX*8), Y4, Y4
	VADDPD  32(DI)(BX*8), Y5, Y5

	VMOVUPD (R9)(BX*8), Y6
	VMOVUPD 32(R9)(BX*8), Y7
	VMULPD  Y1, Y6, Y6
	VMULPD  Y1, Y7, Y7
	VADDPD  Y4, Y6, Y4
	VADDPD  Y5, Y7, Y5

	VMOVUPD (R10)(BX*8), Y6
	VMOVUPD 32(R10)(BX*8), Y7
	VMULPD  Y2, Y6, Y6
	VMULPD  Y2, Y7, Y7
	VADDPD  Y4, Y6, Y4
	VADDPD  Y5, Y7, Y5

	VMOVUPD (R11)(BX*8), Y6
	VMOVUPD 32(R11)(BX*8), Y7
	VMULPD  Y3, Y6, Y6
	VMULPD  Y3, Y7, Y7
	VADDPD  Y4, Y6, Y4
	VADDPD  Y5, Y7, Y5

	VMOVUPD Y4, (DI)(BX*8)
	VMOVUPD Y5, 32(DI)(BX*8)
	ADDQ    $8, BX
	CMPQ    BX, DX
	JB      loop8

quad:
	MOVQ CX, DX
	SUBQ BX, DX
	CMPQ DX, $4
	JB   tail

	VMOVUPD (R8)(BX*8), Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI)(BX*8), Y4, Y4
	VMOVUPD (R9)(BX*8), Y6
	VMULPD  Y1, Y6, Y6
	VADDPD  Y4, Y6, Y4
	VMOVUPD (R10)(BX*8), Y6
	VMULPD  Y2, Y6, Y6
	VADDPD  Y4, Y6, Y4
	VMOVUPD (R11)(BX*8), Y6
	VMULPD  Y3, Y6, Y6
	VADDPD  Y4, Y6, Y4
	VMOVUPD Y4, (DI)(BX*8)
	ADDQ    $4, BX

tail:
	CMPQ BX, CX
	JAE  done

	// The low lane of Y0..Y3 holds t0..t3, so X0..X3 serve as scalars.
	VMOVSD (R8)(BX*8), X4
	VMULSD X0, X4, X4
	VADDSD (DI)(BX*8), X4, X4
	VMOVSD (R9)(BX*8), X6
	VMULSD X1, X6, X6
	VADDSD X4, X6, X4
	VMOVSD (R10)(BX*8), X6
	VMULSD X2, X6, X6
	VADDSD X4, X6, X4
	VMOVSD (R11)(BX*8), X6
	VMULSD X3, X6, X6
	VADDSD X4, X6, X4
	VMOVSD X4, (DI)(BX*8)
	INCQ   BX
	JMP    tail

done:
	VZEROUPPER
	RET
