//go:build amd64 && !purego

#include "textflag.h"

// func adamStepAVX(val, grad, m, v *float32, n int, b1, omb1, b2, omb2 float32, lr, eps float64)
//
// One Adam update of n parameters, n a positive multiple of 4, four per
// iteration, computing exactly what the Go loop in adamStep computes:
//
//	m = b1*m + omb1*g                  float32: VMULPS, VMULPS, VADDPS
//	v = b2*v + (omb2*g)*g              float32: VMULPS ×3, VADDPS
//	val -= float32(lr*float64(m) / (sqrt(float64(v)) + eps))
//
// The last line widens the four lanes to float64 (VCVTPS2PD, exact) and
// runs VMULPD, VSQRTPD, VADDPD, VDIVPD there before VCVTPD2PS rounds
// the quotient to float32 once, as the scalar CVTSD2SS does. Every one
// of those instructions is correctly rounded per IEEE 754, there is no
// FMA and no reciprocal approximation, so each lane carries the bits
// the scalar MULSS/ADDSS/SQRTSD/DIVSD sequence would.
//
// Register use:
//	DI val   SI grad   BX m   DX v   CX iteration countdown (n/4)
//	X8 b1  X9 omb1  X10 b2  X11 omb2  Y12 lr  Y13 eps
//	X0 g  X1 m  X2,X4 products  X3 v  Y5 lr*m → step  Y6 sqrt(v)+eps  X7 val
TEXT ·adamStepAVX(SB), NOSPLIT, $0-72
	MOVQ val+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), BX
	MOVQ v+24(FP), DX
	MOVQ n+32(FP), CX
	SHRQ $2, CX
	VBROADCASTSS b1+40(FP), X8
	VBROADCASTSS omb1+44(FP), X9
	VBROADCASTSS b2+48(FP), X10
	VBROADCASTSS omb2+52(FP), X11
	VBROADCASTSD lr+56(FP), Y12
	VBROADCASTSD eps+64(FP), Y13

loop:
	VMOVUPS (SI), X0
	VMULPS  (BX), X8, X1
	VMULPS  X0, X9, X2
	VADDPS  X2, X1, X1
	VMOVUPS X1, (BX)
	VMULPS  (DX), X10, X3
	VMULPS  X0, X11, X4
	VMULPS  X0, X4, X4
	VADDPS  X4, X3, X3
	VMOVUPS X3, (DX)
	VCVTPS2PD X1, Y5
	VMULPD  Y5, Y12, Y5
	VCVTPS2PD X3, Y6
	VSQRTPD Y6, Y6
	VADDPD  Y13, Y6, Y6
	VDIVPD  Y6, Y5, Y5
	VCVTPD2PSY Y5, X5
	VMOVUPS (DI), X7
	VSUBPS  X5, X7, X7
	VMOVUPS X7, (DI)
	ADDQ $16, SI
	ADDQ $16, BX
	ADDQ $16, DX
	ADDQ $16, DI
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET
