//go:build amd64 && !purego

#include "textflag.h"

// func hasAVX() bool
//
// CPUID.1:ECX bit 28 (AVX) and bit 27 (OSXSAVE), then XGETBV to confirm
// the OS context-switches XMM+YMM state (XCR0 bits 1 and 2).
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func hasAVX512() bool
//
// CPUID max leaf >= 7, CPUID.1:ECX bit 27 (OSXSAVE), CPUID.(7,0):EBX
// bit 16 (AVX512F), then XGETBV to confirm the OS context-switches
// XMM, YMM, the opmask registers and both halves of the ZMM state
// (XCR0 bits 1, 2, 5, 6 and 7).
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no512
	MOVL $1, AX
	XORL CX, CX
	CPUID
	TESTL $0x08000000, CX
	JZ    no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x00010000, BX
	JZ    no512
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	MOVB $1, ret+0(FP)
	RET

no512:
	MOVB $0, ret+0(FP)
	RET

// func mmRowAVX(dst, a, b *float32, astride, k, n, j8, acc int)
//
// dst[j] (+)= sum over p in [0,k) of a[p*astride] * b[p*n+j], for
// j in [0, j8), j8 a multiple of 8. Column lanes are independent YMM
// lanes, each accumulating in ascending-p order from +0 with separate
// VMULPS/VADDPS (no FMA), then stored (acc=0) or added to dst once
// (acc=1) — bit-identical to the scalar kernels. Zero a-elements skip
// the whole rank-1 update (exact for finite data; see matmul.go).
//
// Register use:
//	DI dst base   SI a base      BX b base
//	R8 astride*4  R9 k           R10 n*4 (b row stride)
//	R11 j8*4      R12 acc flag   R13 j byte offset
//	DX a cursor   CX b cursor    R15 p countdown   AX dst block addr
//	X15 zero (compare)  Y0-Y3 accumulators  X4/Y4 a element  Y5 b row
TEXT ·mmRowAVX(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ astride+24(FP), R8
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10
	MOVQ j8+48(FP), R11
	MOVQ acc+56(FP), R12
	SHLQ $2, R8
	SHLQ $2, R10
	SHLQ $2, R11
	VXORPS X15, X15, X15

	XORQ R13, R13

jloop:
	MOVQ R11, R14
	SUBQ R13, R14
	CMPQ R14, $128
	JGE  block32
	CMPQ R14, $32
	JGE  block8
	VZEROUPPER
	RET

// 32 columns per pass: four YMM accumulators amortize the scalar
// a-element load/test/broadcast over 32 multiply-adds.
block32:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ SI, DX
	LEAQ (BX)(R13*1), CX
	MOVQ R9, R15

p32:
	// VEX-encoded scalar load: legacy MOVSS here would merge into X4's
	// dirty YMM upper half and serialize the loop on that false
	// dependency (SSE/AVX transition penalty).
	VMOVSS   (DX), X4
	VUCOMISS X15, X4
	JE       p32next
	VBROADCASTSS (DX), Y4
	VMOVUPS  (CX), Y5
	VMULPS   Y4, Y5, Y5
	VADDPS   Y5, Y0, Y0
	VMOVUPS  32(CX), Y5
	VMULPS   Y4, Y5, Y5
	VADDPS   Y5, Y1, Y1
	VMOVUPS  64(CX), Y5
	VMULPS   Y4, Y5, Y5
	VADDPS   Y5, Y2, Y2
	VMOVUPS  96(CX), Y5
	VMULPS   Y4, Y5, Y5
	VADDPS   Y5, Y3, Y3

p32next:
	ADDQ R8, DX
	ADDQ R10, CX
	DECQ R15
	JNZ  p32

	LEAQ  (DI)(R13*1), AX
	TESTQ R12, R12
	JZ    store32
	VADDPS (AX), Y0, Y0
	VADDPS 32(AX), Y1, Y1
	VADDPS 64(AX), Y2, Y2
	VADDPS 96(AX), Y3, Y3

store32:
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	VMOVUPS Y2, 64(AX)
	VMOVUPS Y3, 96(AX)
	ADDQ $128, R13
	JMP  jloop

// 8-column tail blocks.
block8:
	VXORPS Y0, Y0, Y0
	MOVQ SI, DX
	LEAQ (BX)(R13*1), CX
	MOVQ R9, R15

p8:
	VMOVSS   (DX), X4
	VUCOMISS X15, X4
	JE       p8next
	VBROADCASTSS (DX), Y4
	VMOVUPS  (CX), Y5
	VMULPS   Y4, Y5, Y5
	VADDPS   Y5, Y0, Y0

p8next:
	ADDQ R8, DX
	ADDQ R10, CX
	DECQ R15
	JNZ  p8

	LEAQ  (DI)(R13*1), AX
	TESTQ R12, R12
	JZ    store8
	VADDPS (AX), Y0, Y0

store8:
	VMOVUPS Y0, (AX)
	ADDQ $32, R13
	JMP  jloop

// func mmTiles4x16AVX(dst, a, b *float32, arow, ap, k, n, tiles, acc int)
//
// Register-tiled a@b micro-kernel, 4 rows x 16 columns per tile, for
// `tiles` consecutive row tiles:
//
//	dst[r*n+j] (+)= sum over p in [0,k) of a[r*arow + p*ap] * b[p*n+j]
//
// for r in [0, 4*tiles), j in [0,16). Eight YMM accumulators (4 rows x 2
// column vectors) share the two b vectors loaded once per p, so eight
// independent VADDPS chains are in flight where the row kernel has one
// or two. Every lane still sums in ascending p from +0 with separate
// VMULPS/VADDPS (no FMA) — bit-identical to the scalar kernels. Zero
// a-elements are multiplied, not skipped (exact for finite data; see
// matmul.go).
//
// Register use:
//	DI dst tile   SI a tile      BX b base
//	R8 arow*4     R9 ap*4        R10 k        R11 n*4
//	R12 tiles     R13 acc flag   R14 3*arow*4
//	DX a cursor   CX b cursor    R15 p countdown   AX dst row addr
//	Y0-Y7 accumulators  Y8,Y9 b row  Y10,Y13 a broadcast  Y11,Y12 products
TEXT ·mmTiles4x16AVX(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ arow+24(FP), R8
	MOVQ ap+32(FP), R9
	MOVQ k+40(FP), R10
	MOVQ n+48(FP), R11
	MOVQ tiles+56(FP), R12
	MOVQ acc+64(FP), R13
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R11
	LEAQ (R8)(R8*2), R14

tile416:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, DX
	MOVQ BX, CX
	MOVQ R10, R15

p416:
	VMOVUPS (CX), Y8
	VMOVUPS 32(CX), Y9
	VBROADCASTSS (DX), Y10
	VMULPS  Y8, Y10, Y11
	VADDPS  Y11, Y0, Y0
	VMULPS  Y9, Y10, Y12
	VADDPS  Y12, Y1, Y1
	VBROADCASTSS (DX)(R8*1), Y13
	VMULPS  Y8, Y13, Y11
	VADDPS  Y11, Y2, Y2
	VMULPS  Y9, Y13, Y12
	VADDPS  Y12, Y3, Y3
	VBROADCASTSS (DX)(R8*2), Y10
	VMULPS  Y8, Y10, Y11
	VADDPS  Y11, Y4, Y4
	VMULPS  Y9, Y10, Y12
	VADDPS  Y12, Y5, Y5
	VBROADCASTSS (DX)(R14*1), Y13
	VMULPS  Y8, Y13, Y11
	VADDPS  Y11, Y6, Y6
	VMULPS  Y9, Y13, Y12
	VADDPS  Y12, Y7, Y7
	ADDQ R9, DX
	ADDQ R11, CX
	DECQ R15
	JNZ  p416

	MOVQ  DI, AX
	TESTQ R13, R13
	JZ    store416
	VADDPS (AX), Y0, Y0
	VADDPS 32(AX), Y1, Y1
	VADDPS (AX)(R11*1), Y2, Y2
	VADDPS 32(AX)(R11*1), Y3, Y3
	VADDPS (AX)(R11*2), Y4, Y4
	VADDPS 32(AX)(R11*2), Y5, Y5
	LEAQ   (AX)(R11*2), AX
	VADDPS (AX)(R11*1), Y6, Y6
	VADDPS 32(AX)(R11*1), Y7, Y7
	MOVQ   DI, AX

store416:
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	VMOVUPS Y2, (AX)(R11*1)
	VMOVUPS Y3, 32(AX)(R11*1)
	VMOVUPS Y4, (AX)(R11*2)
	VMOVUPS Y5, 32(AX)(R11*2)
	LEAQ    (AX)(R11*2), AX
	VMOVUPS Y6, (AX)(R11*1)
	VMOVUPS Y7, 32(AX)(R11*1)

	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R11*4), DI
	DECQ R12
	JNZ  tile416
	VZEROUPPER
	RET

// func mmTiles4x32AVX512(dst, a, b *float32, arow, ap, k, n, tiles, acc int)
//
// mmTiles4x16AVX on 512-bit registers: 4 rows x 32 columns per tile,
// eight ZMM accumulators against two 64-byte b vectors and four
// VBROADCASTSS per p, for r in [0, 4*tiles), j in [0,32). Same contract,
// same argument meaning: every lane sums in ascending p from +0 with
// separate VMULPS/VADDPS (no FMA) and zeros are multiplied through, so
// the bits are the YMM tile's. AVX512F instructions only.
//
// Register state. The kernel keeps to Z0-Z13. Z16-Z21 would be free as
// well — VZEROUPPER does not clear Z16-Z31, and ABI0 assembly may use
// them because Go code never does — but fourteen registers suffice, and
// in Z0-Z15 the closing VZEROUPPER clears every upper half the kernel
// dirtied. Async preemption never stops inside an assembly function,
// so no signal handler sees the ZMM state mid-tile. The VZEROUPPER
// still matters for the code that follows — the YMM tiles of the same
// product and Go's SSE scalar arithmetic — which would otherwise run
// with the upper state dirty.
//
// Register use as mmTiles4x16AVX, with
//	Z0-Z7 accumulators  Z8,Z9 b row  Z10,Z13 a broadcast  Z11,Z12 products
TEXT ·mmTiles4x32AVX512(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ arow+24(FP), R8
	MOVQ ap+32(FP), R9
	MOVQ k+40(FP), R10
	MOVQ n+48(FP), R11
	MOVQ tiles+56(FP), R12
	MOVQ acc+64(FP), R13
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R11
	LEAQ (R8)(R8*2), R14

tile432:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ SI, DX
	MOVQ BX, CX
	MOVQ R10, R15

p432:
	VMOVUPS (CX), Z8
	VMOVUPS 64(CX), Z9
	VBROADCASTSS (DX), Z10
	VMULPS  Z8, Z10, Z11
	VADDPS  Z11, Z0, Z0
	VMULPS  Z9, Z10, Z12
	VADDPS  Z12, Z1, Z1
	VBROADCASTSS (DX)(R8*1), Z13
	VMULPS  Z8, Z13, Z11
	VADDPS  Z11, Z2, Z2
	VMULPS  Z9, Z13, Z12
	VADDPS  Z12, Z3, Z3
	VBROADCASTSS (DX)(R8*2), Z10
	VMULPS  Z8, Z10, Z11
	VADDPS  Z11, Z4, Z4
	VMULPS  Z9, Z10, Z12
	VADDPS  Z12, Z5, Z5
	VBROADCASTSS (DX)(R14*1), Z13
	VMULPS  Z8, Z13, Z11
	VADDPS  Z11, Z6, Z6
	VMULPS  Z9, Z13, Z12
	VADDPS  Z12, Z7, Z7
	ADDQ R9, DX
	ADDQ R11, CX
	DECQ R15
	JNZ  p432

	MOVQ  DI, AX
	TESTQ R13, R13
	JZ    store432
	VADDPS (AX), Z0, Z0
	VADDPS 64(AX), Z1, Z1
	VADDPS (AX)(R11*1), Z2, Z2
	VADDPS 64(AX)(R11*1), Z3, Z3
	VADDPS (AX)(R11*2), Z4, Z4
	VADDPS 64(AX)(R11*2), Z5, Z5
	LEAQ   (AX)(R11*2), AX
	VADDPS (AX)(R11*1), Z6, Z6
	VADDPS 64(AX)(R11*1), Z7, Z7
	MOVQ   DI, AX

store432:
	VMOVUPS Z0, (AX)
	VMOVUPS Z1, 64(AX)
	VMOVUPS Z2, (AX)(R11*1)
	VMOVUPS Z3, 64(AX)(R11*1)
	VMOVUPS Z4, (AX)(R11*2)
	VMOVUPS Z5, 64(AX)(R11*2)
	LEAQ    (AX)(R11*2), AX
	VMOVUPS Z6, (AX)(R11*1)
	VMOVUPS Z7, 64(AX)(R11*1)

	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R11*4), DI
	DECQ R12
	JNZ  tile432
	VZEROUPPER
	RET

// func mmTiles8x8AVX(dst, a, b *float32, arow, ap, k, n, tiles, acc int)
//
// The 8 rows x 8 columns shape of mmTiles4x16AVX, for the 8-column
// block: eight accumulators (one per row) against one b vector per p.
// Same contract, same argument meaning, r in [0, 8*tiles), j in [0,8).
//
// Register use as mmTiles4x16AVX, plus SI/DX for rows 0-3 and R14-based
// AX for rows 4-7 of a:
//	AX a cursor rows 4-7 (DX + 4*arow*4), reused as dst row addr
//	Y0-Y7 accumulators  Y8 b row  Y9,Y10 a broadcast  Y11,Y12 products
TEXT ·mmTiles8x8AVX(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ arow+24(FP), R8
	MOVQ ap+32(FP), R9
	MOVQ k+40(FP), R10
	MOVQ n+48(FP), R11
	MOVQ tiles+56(FP), R12
	MOVQ acc+64(FP), R13
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R11
	LEAQ (R8)(R8*2), R14

tile88:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, DX
	LEAQ (SI)(R8*4), AX
	MOVQ BX, CX
	MOVQ R10, R15

p88:
	VMOVUPS (CX), Y8
	VBROADCASTSS (DX), Y9
	VMULPS  Y8, Y9, Y11
	VADDPS  Y11, Y0, Y0
	VBROADCASTSS (DX)(R8*1), Y10
	VMULPS  Y8, Y10, Y12
	VADDPS  Y12, Y1, Y1
	VBROADCASTSS (DX)(R8*2), Y9
	VMULPS  Y8, Y9, Y11
	VADDPS  Y11, Y2, Y2
	VBROADCASTSS (DX)(R14*1), Y10
	VMULPS  Y8, Y10, Y12
	VADDPS  Y12, Y3, Y3
	VBROADCASTSS (AX), Y9
	VMULPS  Y8, Y9, Y11
	VADDPS  Y11, Y4, Y4
	VBROADCASTSS (AX)(R8*1), Y10
	VMULPS  Y8, Y10, Y12
	VADDPS  Y12, Y5, Y5
	VBROADCASTSS (AX)(R8*2), Y9
	VMULPS  Y8, Y9, Y11
	VADDPS  Y11, Y6, Y6
	VBROADCASTSS (AX)(R14*1), Y10
	VMULPS  Y8, Y10, Y12
	VADDPS  Y12, Y7, Y7
	ADDQ R9, DX
	ADDQ R9, AX
	ADDQ R11, CX
	DECQ R15
	JNZ  p88

	MOVQ  DI, AX
	LEAQ  (DI)(R11*4), DX
	LEAQ  (R11)(R11*2), CX
	TESTQ R13, R13
	JZ    store88
	VADDPS (AX), Y0, Y0
	VADDPS (AX)(R11*1), Y1, Y1
	VADDPS (AX)(R11*2), Y2, Y2
	VADDPS (AX)(CX*1), Y3, Y3
	VADDPS (DX), Y4, Y4
	VADDPS (DX)(R11*1), Y5, Y5
	VADDPS (DX)(R11*2), Y6, Y6
	VADDPS (DX)(CX*1), Y7, Y7

store88:
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, (AX)(R11*1)
	VMOVUPS Y2, (AX)(R11*2)
	VMOVUPS Y3, (AX)(CX*1)
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, (DX)(R11*1)
	VMOVUPS Y6, (DX)(R11*2)
	VMOVUPS Y7, (DX)(CX*1)

	LEAQ (SI)(R8*8), SI
	LEAQ (DI)(R11*8), DI
	DECQ R12
	JNZ  tile88
	VZEROUPPER
	RET

// func convTiles4x16AVX(dst, img, w *float32, c, kh, kw, cstride, rstride, n, tiles int)
//
// mmTiles4x16AVX with the a operand read out of an image: `tiles`
// consecutive 4-position x 16-channel tiles of one output row of a
// stride-1 convolution product,
//
//	dst[r*n+j] = sum over (ci,ky,kx) of img[ci*cstride + ky*rstride + r + kx] * w[p*n+j]
//
// for r in [0, 4*tiles), j in [0,16), p = (ci*kh+ky)*kw+kx ascending.
// The p loop is three nested counts: a kw-long run along an image row
// (the cursor steps 4 bytes; the tile's four rows are 0, 4, 8, 12(DX)),
// then a step to the next kernel row, then to the next channel. Every
// lane sums in ascending p from +0 with separate VMULPS/VADDPS (no FMA)
// and zeros are multiplied through, exactly as mmTiles4x16AVX.
//
// Register use:
//	DI dst tile   SI img tile    BX w base
//	R8 (cstride-kh*rstride)*4    R9 (rstride-kw)*4   R10 kw   R11 n*4
//	R12 tiles     R13 ci countdown   R14 ky countdown   R15 kx countdown
//	DX a cursor   CX b cursor    AX dst row addr
//	Y0-Y7 accumulators  Y8,Y9 b row  Y10,Y13 a broadcast  Y11,Y12 products
TEXT ·convTiles4x16AVX(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ img+8(FP), SI
	MOVQ w+16(FP), BX
	MOVQ kh+32(FP), R14
	MOVQ kw+40(FP), R10
	MOVQ cstride+48(FP), R8
	MOVQ rstride+56(FP), R9
	MOVQ n+64(FP), R11
	MOVQ tiles+72(FP), R12
	IMULQ R9, R14
	SUBQ R14, R8
	SUBQ R10, R9
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R11

ctile416:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, DX
	MOVQ BX, CX
	MOVQ c+24(FP), R13

cchan416:
	MOVQ kh+32(FP), R14

crow416:
	MOVQ R10, R15

cp416:
	VMOVUPS (CX), Y8
	VMOVUPS 32(CX), Y9
	VBROADCASTSS (DX), Y10
	VMULPS  Y8, Y10, Y11
	VADDPS  Y11, Y0, Y0
	VMULPS  Y9, Y10, Y12
	VADDPS  Y12, Y1, Y1
	VBROADCASTSS 4(DX), Y13
	VMULPS  Y8, Y13, Y11
	VADDPS  Y11, Y2, Y2
	VMULPS  Y9, Y13, Y12
	VADDPS  Y12, Y3, Y3
	VBROADCASTSS 8(DX), Y10
	VMULPS  Y8, Y10, Y11
	VADDPS  Y11, Y4, Y4
	VMULPS  Y9, Y10, Y12
	VADDPS  Y12, Y5, Y5
	VBROADCASTSS 12(DX), Y13
	VMULPS  Y8, Y13, Y11
	VADDPS  Y11, Y6, Y6
	VMULPS  Y9, Y13, Y12
	VADDPS  Y12, Y7, Y7
	ADDQ $4, DX
	ADDQ R11, CX
	DECQ R15
	JNZ  cp416
	ADDQ R9, DX
	DECQ R14
	JNZ  crow416
	ADDQ R8, DX
	DECQ R13
	JNZ  cchan416

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R11*1)
	VMOVUPS Y3, 32(DI)(R11*1)
	VMOVUPS Y4, (DI)(R11*2)
	VMOVUPS Y5, 32(DI)(R11*2)
	LEAQ    (DI)(R11*2), AX
	VMOVUPS Y6, (AX)(R11*1)
	VMOVUPS Y7, 32(AX)(R11*1)

	ADDQ $16, SI
	LEAQ (DI)(R11*4), DI
	DECQ R12
	JNZ  ctile416
	VZEROUPPER
	RET

// func convTiles8x8AVX(dst, img, w *float32, c, kh, kw, cstride, rstride, n, tiles int)
//
// The 8 positions x 8 channels shape of convTiles4x16AVX: eight
// accumulators (one per position, rows 0, 4, ... 28(DX)) against one w
// vector per p. Same contract, same argument meaning, r in [0, 8*tiles),
// j in [0,8).
//
// Register use as convTiles4x16AVX, except
//	Y0-Y7 accumulators  Y8 b row  Y9,Y10 a broadcast  Y11,Y12 products
//	AX, DX dst rows 0-3, 4-7 and CX 3*n*4 while storing
TEXT ·convTiles8x8AVX(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ img+8(FP), SI
	MOVQ w+16(FP), BX
	MOVQ kh+32(FP), R14
	MOVQ kw+40(FP), R10
	MOVQ cstride+48(FP), R8
	MOVQ rstride+56(FP), R9
	MOVQ n+64(FP), R11
	MOVQ tiles+72(FP), R12
	IMULQ R9, R14
	SUBQ R14, R8
	SUBQ R10, R9
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R11

ctile88:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, DX
	MOVQ BX, CX
	MOVQ c+24(FP), R13

cchan88:
	MOVQ kh+32(FP), R14

crow88:
	MOVQ R10, R15

cp88:
	VMOVUPS (CX), Y8
	VBROADCASTSS (DX), Y9
	VMULPS  Y8, Y9, Y11
	VADDPS  Y11, Y0, Y0
	VBROADCASTSS 4(DX), Y10
	VMULPS  Y8, Y10, Y12
	VADDPS  Y12, Y1, Y1
	VBROADCASTSS 8(DX), Y9
	VMULPS  Y8, Y9, Y11
	VADDPS  Y11, Y2, Y2
	VBROADCASTSS 12(DX), Y10
	VMULPS  Y8, Y10, Y12
	VADDPS  Y12, Y3, Y3
	VBROADCASTSS 16(DX), Y9
	VMULPS  Y8, Y9, Y11
	VADDPS  Y11, Y4, Y4
	VBROADCASTSS 20(DX), Y10
	VMULPS  Y8, Y10, Y12
	VADDPS  Y12, Y5, Y5
	VBROADCASTSS 24(DX), Y9
	VMULPS  Y8, Y9, Y11
	VADDPS  Y11, Y6, Y6
	VBROADCASTSS 28(DX), Y10
	VMULPS  Y8, Y10, Y12
	VADDPS  Y12, Y7, Y7
	ADDQ $4, DX
	ADDQ R11, CX
	DECQ R15
	JNZ  cp88
	ADDQ R9, DX
	DECQ R14
	JNZ  crow88
	ADDQ R8, DX
	DECQ R13
	JNZ  cchan88

	MOVQ DI, AX
	LEAQ (DI)(R11*4), DX
	LEAQ (R11)(R11*2), CX
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, (AX)(R11*1)
	VMOVUPS Y2, (AX)(R11*2)
	VMOVUPS Y3, (AX)(CX*1)
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, (DX)(R11*1)
	VMOVUPS Y6, (DX)(R11*2)
	VMOVUPS Y7, (DX)(CX*1)

	ADDQ $32, SI
	LEAQ (DI)(R11*8), DI
	DECQ R12
	JNZ  ctile88
	VZEROUPPER
	RET
