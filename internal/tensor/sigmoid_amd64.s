//go:build amd64 && !purego

#include "textflag.h"

// Sigmoid's vector constants, each repeated across a 32-byte block so a
// YMM operand can read it from memory and a ZMM register can broadcast
// it. The float64 values are archExp's ($GOROOT/src/math/exp_amd64.s),
// written as it writes them so they assemble to the same bits.
#define DUP4(off, v) DATA sigconst<>+(off)(SB)/8, v; DATA sigconst<>+(off+8)(SB)/8, v; DATA sigconst<>+(off+16)(SB)/8, v; DATA sigconst<>+(off+24)(SB)/8, v
#define DUP8(off, v) DATA sigconst<>+(off)(SB)/4, v; DATA sigconst<>+(off+4)(SB)/4, v; DATA sigconst<>+(off+8)(SB)/4, v; DATA sigconst<>+(off+12)(SB)/4, v; DATA sigconst<>+(off+16)(SB)/4, v; DATA sigconst<>+(off+20)(SB)/4, v; DATA sigconst<>+(off+24)(SB)/4, v; DATA sigconst<>+(off+28)(SB)/4, v

DUP4(0, $0x8000000000000000)                           // float64 sign bit
DUP4(32, $1.4426950408889634073599246810018920)        // LOG2E
DUP4(64, $0.69314718055966295651160180568695068359375) // LN2U
DUP4(96, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
DUP4(128, $0.0625)
DUP4(160, $2.4801587301587301587e-5)
DUP4(192, $1.9841269841269841270e-4)
DUP4(224, $1.3888888888888888889e-3)
DUP4(256, $8.3333333333333333333e-3)
DUP4(288, $4.1666666666666666667e-2)
DUP4(320, $1.6666666666666666667e-1)
DUP4(352, $0.5)
DUP4(384, $1.0)
DUP4(416, $2.0)
DUP8(448, $0x7FFFFFFF) // float32 magnitude mask
DUP8(480, $0x442F0000) // float32 700: the vector lanes' bound on |v|
DUP8(512, $1023)       // int32 exponent bias
GLOBL sigconst<>(SB), RODATA|NOPTR, $544

#define SIGN sigconst<>+0(SB)
#define LOG2E sigconst<>+32(SB)
#define LN2U sigconst<>+64(SB)
#define LN2L sigconst<>+96(SB)
#define SIXTEENTH sigconst<>+128(SB)
#define C8 sigconst<>+160(SB)
#define C7 sigconst<>+192(SB)
#define C6 sigconst<>+224(SB)
#define C5 sigconst<>+256(SB)
#define C4 sigconst<>+288(SB)
#define C3 sigconst<>+320(SB)
#define HALF sigconst<>+352(SB)
#define ONE sigconst<>+384(SB)
#define TWO sigconst<>+416(SB)
#define ABS32 sigconst<>+448(SB)
#define BOUND32 sigconst<>+480(SB)
#define BIAS32 sigconst<>+512(SB)

// func hasAVX2FMA() bool
//
// CPUID max leaf >= 7, CPUID.1:ECX bit 12 (FMA) and CPUID.(7,0):EBX
// bit 5 (AVX2).
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   nofma
	MOVL $1, AX
	XORL CX, CX
	CPUID
	TESTL $0x1000, CX
	JZ    nofma
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JZ    nofma
	MOVB $1, ret+0(FP)
	RET

nofma:
	MOVB $0, ret+0(FP)
	RET

// func sigmoidAVX(dst, src []float32) int
//
// Per 4-lane group: the range test on the float32 lanes, then
// x = -float64(v) and archExp's avxfma block lane for lane —
//	t  = x·LOG2E, k = round-to-nearest int32(t), t = float64(k)
//	x  = x − t·LN2U (fused), x = x − t·LN2L (fused), x = x·(1/16)
//	p  = C8; p = p·x + c (fused) for c = C7 … C3, ½, 1
//	x  = x·p; then three times p = x + 2, x = x·p; then p = x + 2,
//	x  = x·p + 1 (fused)
//	e  = x · 2^k (the exponent field (k+1023)<<52)
// — and dst = float32(1 / (1 + e)).
//
// Register use:
//	DI dst base  SI src base  CX whole-group end  AX index  DX lane mask
//	X0/Y0 v, then x  X1/Y1 |v| test, then t and p  X2/Y2 k, then 2^k
//	Y3 the divide's numerator
TEXT ·sigmoidAVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX

group4:
	CMPQ AX, CX
	JGE  done4
	VMOVUPS (SI)(AX*4), X0
	VANDPS  ABS32, X0, X1
	VCMPPS  $0x12, BOUND32, X1, X1 // |v| <= 700, false for NaN
	VMOVMSKPS X1, DX
	CMPL    DX, $0xF
	JNE     done4

	VCVTPS2PD    X0, Y0
	VXORPD       SIGN, Y0, Y0
	VMULPD       LOG2E, Y0, Y1
	VCVTPD2DQY   Y1, X2
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD LN2U, Y1, Y0
	VFNMADD231PD LN2L, Y1, Y0
	VMULPD       SIXTEENTH, Y0, Y0
	VMOVUPD      C8, Y1
	VFMADD213PD  C7, Y0, Y1
	VFMADD213PD  C6, Y0, Y1
	VFMADD213PD  C5, Y0, Y1
	VFMADD213PD  C4, Y0, Y1
	VFMADD213PD  C3, Y0, Y1
	VFMADD213PD  HALF, Y0, Y1
	VFMADD213PD  ONE, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VFMADD213PD  ONE, Y1, Y0
	VPADDD       BIAS32, X2, X2
	VPMOVZXDQ    X2, Y2
	VPSLLQ       $52, Y2, Y2
	VMULPD       Y2, Y0, Y0

	VADDPD     ONE, Y0, Y0
	VMOVUPD    ONE, Y3
	VDIVPD     Y0, Y3, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)(AX*4)
	ADDQ       $4, AX
	JMP        group4

done4:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func sigmoidAVX512(dst, src []float32) int
//
// sigmoidAVX on 8-lane groups: the range test on a YMM register of
// float32 lanes, the float64 lanes in ZMM registers, the constants
// broadcast into Z16-Z29 once.
//
// Register use as sigmoidAVX, with Y/Z in place of X/Y:
//	Z16 sign  Z17 LOG2E  Z18 LN2U  Z19 LN2L  Z20 1/16  Z21-Z26 C8-C3
//	Z27 ½  Z28 1  Z29 2
TEXT ·sigmoidAVX512(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	ANDQ $~7, CX
	XORQ AX, AX
	VBROADCASTSD SIGN, Z16
	VBROADCASTSD LOG2E, Z17
	VBROADCASTSD LN2U, Z18
	VBROADCASTSD LN2L, Z19
	VBROADCASTSD SIXTEENTH, Z20
	VBROADCASTSD C8, Z21
	VBROADCASTSD C7, Z22
	VBROADCASTSD C6, Z23
	VBROADCASTSD C5, Z24
	VBROADCASTSD C4, Z25
	VBROADCASTSD C3, Z26
	VBROADCASTSD HALF, Z27
	VBROADCASTSD ONE, Z28
	VBROADCASTSD TWO, Z29

group8:
	CMPQ AX, CX
	JGE  done8
	VMOVUPS (SI)(AX*4), Y0
	VANDPS  ABS32, Y0, Y1
	VCMPPS  $0x12, BOUND32, Y1, Y1 // |v| <= 700, false for NaN
	VMOVMSKPS Y1, DX
	CMPL    DX, $0xFF
	JNE     done8

	VCVTPS2PD    Y0, Z0
	VPXORQ       Z16, Z0, Z0
	VMULPD       Z17, Z0, Z1
	VCVTPD2DQ    Z1, Y2
	VCVTDQ2PD    Y2, Z1
	VFNMADD231PD Z18, Z1, Z0
	VFNMADD231PD Z19, Z1, Z0
	VMULPD       Z20, Z0, Z0
	VMOVAPD      Z21, Z1
	VFMADD213PD  Z22, Z0, Z1
	VFMADD213PD  Z23, Z0, Z1
	VFMADD213PD  Z24, Z0, Z1
	VFMADD213PD  Z25, Z0, Z1
	VFMADD213PD  Z26, Z0, Z1
	VFMADD213PD  Z27, Z0, Z1
	VFMADD213PD  Z28, Z0, Z1
	VMULPD       Z1, Z0, Z0
	VADDPD       Z29, Z0, Z1
	VMULPD       Z1, Z0, Z0
	VADDPD       Z29, Z0, Z1
	VMULPD       Z1, Z0, Z0
	VADDPD       Z29, Z0, Z1
	VMULPD       Z1, Z0, Z0
	VADDPD       Z29, Z0, Z1
	VFMADD213PD  Z28, Z1, Z0
	VPADDD       BIAS32, Y2, Y2
	VPMOVZXDQ    Y2, Z2
	VPSLLQ       $52, Z2, Z2
	VMULPD       Z2, Z0, Z0

	VADDPD    Z28, Z0, Z0
	VDIVPD    Z0, Z28, Z0
	VCVTPD2PS Z0, Y0
	VMOVUPS   Y0, (DI)(AX*4)
	ADDQ      $8, AX
	JMP       group8

done8:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
