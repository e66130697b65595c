// AVX2 micro-kernels behind the blocked matmul and cache-aware conv
// variants. Every kernel preserves the scalar reference's float32
// operation order exactly: per output element, each step is one multiply
// then one add onto the running value (VMULPS + VADDPS, never FMA — a
// fused multiply-add rounds once where the scalar code rounds twice, which
// would break bit-identity with the naive kernels). SIMD lanes vectorize
// across independent output columns, so no accumulation order changes.

#include "textflag.h"

// func saxpyAsm(dst, x *float32, n int, a float32)
// dst[0:n] += a * x[0:n], one mul-then-add per element.
TEXT ·saxpyAsm(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS a+24(FP), Y0

loop32:
	CMPQ    CX, $32
	JL      loop8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y3, Y3
	VMULPS  Y0, Y4, Y4
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     loop32

loop8:
	CMPQ    CX, $8
	JL      tail
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     loop8

tail:
	CMPQ   CX, $0
	JLE    done
	VMOVSS (SI), X1
	VMULSS X0, X1, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

// func saxpy4Asm(d0, d1, d2, d3, x *float32, n int, a0, a1, a2, a3 float32)
// Four simultaneous axpy rows sharing each load of x: d_r[0:n] += a_r * x[0:n].
TEXT ·saxpy4Asm(SB), NOSPLIT, $0-64
	MOVQ         d0+0(FP), DI
	MOVQ         d1+8(FP), R8
	MOVQ         d2+16(FP), R9
	MOVQ         d3+24(FP), R10
	MOVQ         x+32(FP), SI
	MOVQ         n+40(FP), CX
	VBROADCASTSS a0+48(FP), Y0
	VBROADCASTSS a1+52(FP), Y1
	VBROADCASTSS a2+56(FP), Y2
	VBROADCASTSS a3+60(FP), Y3

loop8:
	CMPQ    CX, $8
	JL      tail
	VMOVUPS (SI), Y4
	VMULPS  Y0, Y4, Y5
	VADDPS  (DI), Y5, Y5
	VMOVUPS Y5, (DI)
	VMULPS  Y1, Y4, Y6
	VADDPS  (R8), Y6, Y6
	VMOVUPS Y6, (R8)
	VMULPS  Y2, Y4, Y7
	VADDPS  (R9), Y7, Y7
	VMOVUPS Y7, (R9)
	VMULPS  Y3, Y4, Y8
	VADDPS  (R10), Y8, Y8
	VMOVUPS Y8, (R10)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	SUBQ    $8, CX
	JMP     loop8

tail:
	CMPQ   CX, $0
	JLE    done
	VMOVSS (SI), X4
	VMULSS X0, X4, X5
	VADDSS (DI), X5, X5
	VMOVSS X5, (DI)
	VMULSS X1, X4, X6
	VADDSS (R8), X6, X6
	VMOVSS X6, (R8)
	VMULSS X2, X4, X7
	VADDSS (R9), X7, X7
	VMOVSS X7, (R9)
	VMULSS X3, X4, X8
	VADDSS (R10), X8, X8
	VMOVSS X8, (R10)
	ADDQ   $4, SI
	ADDQ   $4, DI
	ADDQ   $4, R8
	ADDQ   $4, R9
	ADDQ   $4, R10
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

// func sgemm4x16Asm(c *float32, ldc int, a *float32, rs, ps int, b *float32, ldb, k int)
// Register-blocked 4x16 output tile: for p in [0,k), for r in [0,4),
// c[r*ldc+j] += a[r*rs+p*ps] * b[p*ldb+j], j in [0,16). The tile lives in
// Y0-Y7 for the whole reduction, so c is loaded and stored once per call.
// Per term: VMULPS with the b row as first operand, then VADDPS with the
// product as first operand, matching saxpy4Asm operand for operand.
TEXT ·sgemm4x16Asm(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $2, R8
	MOVQ a+16(FP), SI
	MOVQ rs+24(FP), DX
	SHLQ $2, DX
	MOVQ ps+32(FP), R9
	SHLQ $2, R9
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R10
	SHLQ $2, R10
	MOVQ k+56(FP), CX
	LEAQ (DX)(DX*2), R11
	LEAQ (R8)(R8*2), R12

	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS 32(DI)(R8*1), Y3
	VMOVUPS (DI)(R8*2), Y4
	VMOVUPS 32(DI)(R8*2), Y5
	VMOVUPS (DI)(R12*1), Y6
	VMOVUPS 32(DI)(R12*1), Y7

loop:
	CMPQ         CX, $0
	JLE          store
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VBROADCASTSS (SI), Y10
	VMULPS       Y10, Y8, Y11
	VMULPS       Y10, Y9, Y12
	VADDPS       Y0, Y11, Y0
	VADDPS       Y1, Y12, Y1
	VBROADCASTSS (SI)(DX*1), Y13
	VMULPS       Y13, Y8, Y14
	VMULPS       Y13, Y9, Y11
	VADDPS       Y2, Y14, Y2
	VADDPS       Y3, Y11, Y3
	VBROADCASTSS (SI)(DX*2), Y10
	VMULPS       Y10, Y8, Y12
	VMULPS       Y10, Y9, Y14
	VADDPS       Y4, Y12, Y4
	VADDPS       Y5, Y14, Y5
	VBROADCASTSS (SI)(R11*1), Y13
	VMULPS       Y13, Y8, Y11
	VMULPS       Y13, Y9, Y12
	VADDPS       Y6, Y11, Y6
	VADDPS       Y7, Y12, Y7
	ADDQ         R9, SI
	ADDQ         R10, BX
	DECQ         CX
	JMP          loop

store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	VMOVUPS Y4, (DI)(R8*2)
	VMOVUPS Y5, 32(DI)(R8*2)
	VMOVUPS Y6, (DI)(R12*1)
	VMOVUPS Y7, 32(DI)(R12*1)
	VZEROUPPER
	RET

// func sgemm4x8Asm(c *float32, ldc int, a *float32, rs, ps int, b *float32, ldb, k int)
// sgemm4x16Asm for a 4x8 tile: the tile lives in Y0-Y3, one YMM per row,
// with the same operand order per term.
TEXT ·sgemm4x8Asm(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $2, R8
	MOVQ a+16(FP), SI
	MOVQ rs+24(FP), DX
	SHLQ $2, DX
	MOVQ ps+32(FP), R9
	SHLQ $2, R9
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R10
	SHLQ $2, R10
	MOVQ k+56(FP), CX
	LEAQ (DX)(DX*2), R11
	LEAQ (R8)(R8*2), R12

	VMOVUPS (DI), Y0
	VMOVUPS (DI)(R8*1), Y1
	VMOVUPS (DI)(R8*2), Y2
	VMOVUPS (DI)(R12*1), Y3

loop:
	CMPQ         CX, $0
	JLE          store
	VMOVUPS      (BX), Y8
	VBROADCASTSS (SI), Y10
	VBROADCASTSS (SI)(DX*1), Y11
	VBROADCASTSS (SI)(DX*2), Y12
	VBROADCASTSS (SI)(R11*1), Y13
	VMULPS       Y10, Y8, Y10
	VMULPS       Y11, Y8, Y11
	VMULPS       Y12, Y8, Y12
	VMULPS       Y13, Y8, Y13
	VADDPS       Y0, Y10, Y0
	VADDPS       Y1, Y11, Y1
	VADDPS       Y2, Y12, Y2
	VADDPS       Y3, Y13, Y3
	ADDQ         R9, SI
	ADDQ         R10, BX
	DECQ         CX
	JMP          loop

store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R8*1)
	VMOVUPS Y2, (DI)(R8*2)
	VMOVUPS Y3, (DI)(R12*1)
	VZEROUPPER
	RET

// func vaddAsm(dst, x *float32, n int)
// dst[0:n] += x[0:n], elementwise (independent lanes, no order change).
TEXT ·vaddAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX

loop32:
	CMPQ    CX, $32
	JL      loop8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     loop32

loop8:
	CMPQ    CX, $8
	JL      tail
	VMOVUPS (SI), Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     loop8

tail:
	CMPQ   CX, $0
	JLE    done
	VMOVSS (SI), X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL  eaxIn+0(FP), AX
	MOVL  ecxIn+4(FP), CX
	CPUID
	MOVL  AX, eax+8(FP)
	MOVL  BX, ebx+12(FP)
	MOVL  CX, ecx+16(FP)
	MOVL  DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
