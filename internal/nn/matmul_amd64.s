#include "textflag.h"

// func cpuHasAVXFMA() bool
//
// Reports whether the CPU supports AVX and FMA3 and the OS has enabled YMM
// state (OSXSAVE + XCR0 bits 1..2). Checked once at package init.
TEXT ·cpuHasAVXFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// ECX bit 27 = OSXSAVE, bit 28 = AVX, bit 12 = FMA3.
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  noavx
	// XCR0 bits 1..2: XMM and YMM state enabled by the OS.
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

// func dotRows24avx(a0, a1, bt *float64, k, k4, nb int, o0, o1, bias *float64, relu int)
//
// Computes two full output rows against nb blocks of four consecutive
// bt columns (column stride k elements): for block b and lane c,
// o0[4b+c] = a0·bt[(4b+c)k : +k4] and o1[4b+c] likewise for a1. Each dot
// runs four interleaved VFMADD231PD lanes — one rounding per step, the
// same IEEE fusedMultiplyAdd math.FMA performs in the scalar mirror
// dotScalar — reduced (l0+l1)+(l2+l3), so results are bit-identical to
// the fallback path.
//
// The epilogue rides along when the caller asks for it: a non-nil bias is
// added packed (VADDPD, the dot sum as first operand — exactly the
// orow[j] += bias[j] of biasReluRows), and relu != 0 clamps with
// VMAXPD(sum, 0), whose NaN and ±0 semantics (second operand wins) match
// the scalar !(v > 0) → 0 clamp bit for bit. Callers with a k%4 tail must
// pass bias=nil, relu=0 and finish in Go, since the tail sum has to land
// before the epilogue. The n%4 edge columns are always the caller's job.
// o1 may alias o0 when a1 aliases a0: the duplicate stores then write
// identical values.
TEXT ·dotRows24avx(SB), NOSPLIT, $0-80
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ bt+16(FP), AX
	MOVQ k+24(FP), R14
	SHLQ $3, R14        // column stride in bytes
	MOVQ k4+32(FP), CX
	SHLQ $3, CX         // k4 elements -> bytes
	MOVQ nb+40(FP), DX
	MOVQ o0+48(FP), DI
	MOVQ o1+56(FP), SI
	MOVQ bias+64(FP), R15
	VXORPD Y11, Y11, Y11 // packed +0 for the ReLU clamp

blockloop:
	TESTQ DX, DX
	JZ    rowsdone
	MOVQ  AX, R10            // column 4b
	LEAQ  (AX)(R14*1), R11   // column 4b+1
	LEAQ  (AX)(R14*2), R12   // column 4b+2
	LEAQ  (R11)(R14*2), R13  // column 4b+3

	VXORPD Y0, Y0, Y0 // a0·b0
	VXORPD Y1, Y1, Y1 // a0·b1
	VXORPD Y2, Y2, Y2 // a0·b2
	VXORPD Y3, Y3, Y3 // a0·b3
	VXORPD Y4, Y4, Y4 // a1·b0
	VXORPD Y5, Y5, Y5 // a1·b1
	VXORPD Y6, Y6, Y6 // a1·b2
	VXORPD Y7, Y7, Y7 // a1·b3

	XORQ BX, BX // byte offset into the rows and the four columns

	// Two 4-element steps per iteration; each lane sees the same FMA
	// sequence (p, then p+4) the single-step loop would issue, so the
	// unroll cannot change a single bit of the result.
rowsdotloop2:
	ADDQ $64, BX // speculative double step; backed out below on overshoot
	CMPQ BX, CX
	JG   rowsdot2done
	VMOVUPD -64(R8)(BX*1), Y8 // a0[p : p+4]
	VMOVUPD -64(R9)(BX*1), Y9 // a1[p : p+4]

	VMOVUPD     -64(R10)(BX*1), Y10
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y10, Y9, Y4

	VMOVUPD     -64(R11)(BX*1), Y10
	VFMADD231PD Y10, Y8, Y1
	VFMADD231PD Y10, Y9, Y5

	VMOVUPD     -64(R12)(BX*1), Y10
	VFMADD231PD Y10, Y8, Y2
	VFMADD231PD Y10, Y9, Y6

	VMOVUPD     -64(R13)(BX*1), Y10
	VFMADD231PD Y10, Y8, Y3
	VFMADD231PD Y10, Y9, Y7

	VMOVUPD -32(R8)(BX*1), Y8 // a0[p+4 : p+8]
	VMOVUPD -32(R9)(BX*1), Y9 // a1[p+4 : p+8]

	VMOVUPD     -32(R10)(BX*1), Y10
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y10, Y9, Y4

	VMOVUPD     -32(R11)(BX*1), Y10
	VFMADD231PD Y10, Y8, Y1
	VFMADD231PD Y10, Y9, Y5

	VMOVUPD     -32(R12)(BX*1), Y10
	VFMADD231PD Y10, Y8, Y2
	VFMADD231PD Y10, Y9, Y6

	VMOVUPD     -32(R13)(BX*1), Y10
	VFMADD231PD Y10, Y8, Y3
	VFMADD231PD Y10, Y9, Y7

	JMP  rowsdotloop2

rowsdot2done:
	SUBQ $64, BX

rowsdotloop1:
	CMPQ BX, CX
	JGE  rowsreduce
	VMOVUPD (R8)(BX*1), Y8 // a0[p : p+4]
	VMOVUPD (R9)(BX*1), Y9 // a1[p : p+4]

	VMOVUPD     (R10)(BX*1), Y10
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y10, Y9, Y4

	VMOVUPD     (R11)(BX*1), Y10
	VFMADD231PD Y10, Y8, Y1
	VFMADD231PD Y10, Y9, Y5

	VMOVUPD     (R12)(BX*1), Y10
	VFMADD231PD Y10, Y8, Y2
	VFMADD231PD Y10, Y9, Y6

	VMOVUPD     (R13)(BX*1), Y10
	VFMADD231PD Y10, Y8, Y3
	VFMADD231PD Y10, Y9, Y7

	ADDQ $32, BX
	JMP  rowsdotloop1

rowsreduce:
	// Packed 4×4 reduction, two instructions of shuffle per packed store.
	// VHADDPD pairs adjacent lanes of one accumulator (lane0+lane1 and
	// lane2+lane3), and the final VADDPD adds (l0+l1) first-operand to
	// (l2+l3) — the exact dotScalar order, so results stay bit-identical.
	VHADDPD    Y1, Y0, Y12          // [A01 B01 A23 B23]
	VHADDPD    Y3, Y2, Y13          // [C01 D01 C23 D23]
	VPERM2F128 $0x21, Y13, Y12, Y14 // [A23 B23 C01 D01]
	VBLENDPD   $12, Y14, Y12, Y15   // [A01 B01 C01 D01]
	VBLENDPD   $12, Y13, Y14, Y14   // [A23 B23 C23 D23]
	VADDPD     Y14, Y15, Y15        // (l0+l1)+(l2+l3) per output
	VHADDPD    Y5, Y4, Y12
	VHADDPD    Y7, Y6, Y13
	VPERM2F128 $0x21, Y13, Y12, Y14
	VBLENDPD   $12, Y14, Y12, Y10
	VBLENDPD   $12, Y13, Y14, Y14
	VADDPD     Y14, Y10, Y10

	TESTQ  R15, R15
	JZ     nobias
	VMOVUPD (R15), Y12 // bias[j : j+4]
	VADDPD Y12, Y15, Y15
	VADDPD Y12, Y10, Y10
	ADDQ   $32, R15

nobias:
	CMPQ   relu+72(FP), $0
	JE     norelu
	VMAXPD Y11, Y15, Y15 // second operand +0 wins on NaN and -0
	VMAXPD Y11, Y10, Y10

norelu:
	VMOVUPD Y15, (DI)
	VMOVUPD Y10, (SI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	LEAQ (AX)(R14*4), AX // next block of four columns
	DECQ DX
	JMP  blockloop

rowsdone:
	VZEROUPPER
	RET

// func ewAddAvx(dst, a *float64, n int)
//
// dst[i] += a[i] for i in [0, n), n % 4 == 0. One VADDPD per four
// elements with dst as the first operand — per element exactly the
// scalar dst[i] += a[i], so vector width cannot change a bit.
TEXT ·ewAddAvx(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	XORQ BX, BX

ewaddloop:
	CMPQ BX, CX
	JGE  ewadddone
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD (SI)(BX*1), Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     ewaddloop

ewadddone:
	VZEROUPPER
	RET

// func ewAdd2Avx(dst, x, y *float64, n int)
//
// dst[i] = x[i] + y[i] for i in [0, n), n % 4 == 0; x first operand,
// matching the scalar xr[j] + yr[j].
TEXT ·ewAdd2Avx(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ n+24(FP), CX
	SHLQ $3, CX
	XORQ BX, BX

ewadd2loop:
	CMPQ BX, CX
	JGE  ewadd2done
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (DX)(BX*1), Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     ewadd2loop

ewadd2done:
	VZEROUPPER
	RET

// func ewMulAddAvx(dst, a *float64, c float64, n int)
//
// dst[i] += a[i]*c for i in [0, n), n % 4 == 0. Deliberately VMULPD
// then VADDPD — two roundings, exactly the scalar dst[i] += a[i]*c —
// never a fused multiply-add, which would round once and change bits.
TEXT ·ewMulAddAvx(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	VBROADCASTSD c+16(FP), Y2
	MOVQ n+24(FP), CX
	SHLQ $3, CX
	XORQ BX, BX

ewmuladdloop:
	CMPQ BX, CX
	JGE  ewmuladddone
	VMOVUPD (SI)(BX*1), Y1
	VMULPD  Y2, Y1, Y1
	VMOVUPD (DI)(BX*1), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     ewmuladdloop

ewmuladddone:
	VZEROUPPER
	RET

// func ewScaleAvx(dst *float64, c float64, n int)
//
// dst[i] *= c for i in [0, n), n % 4 == 0.
TEXT ·ewScaleAvx(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	VBROADCASTSD c+8(FP), Y2
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	XORQ BX, BX

ewscaleloop:
	CMPQ BX, CX
	JGE  ewscaledone
	VMOVUPD (DI)(BX*1), Y0
	VMULPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     ewscaleloop

ewscaledone:
	VZEROUPPER
	RET

// func ewReluAvx(dst *float64, n int)
//
// dst[i] = max(dst[i], +0) for i in [0, n), n % 4 == 0, via VMAXPD with
// +0 as the second operand (second wins on NaN and -0) — bit for bit the
// scalar !(v > 0) → 0 clamp, as in dotRows24avx's epilogue.
TEXT ·ewReluAvx(SB), NOSPLIT, $0-16
	MOVQ   dst+0(FP), DI
	MOVQ   n+8(FP), CX
	SHLQ   $3, CX
	VXORPD Y2, Y2, Y2
	XORQ   BX, BX

ewreluloop:
	CMPQ BX, CX
	JGE  ewreludone
	VMOVUPD (DI)(BX*1), Y0
	VMAXPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     ewreluloop

ewreludone:
	VZEROUPPER
	RET

// func ewNormAvx(dst, gamma, beta *float64, mean, invStd float64, n int)
//
// dst[i] = (dst[i]-mean)*invStd*gamma[i] + beta[i] for i in [0, n),
// n % 4 == 0 — VSUBPD, VMULPD, VMULPD, VADDPD in the scalar expression's
// left-associated order, one rounding per step, no FMA contraction.
TEXT ·ewNormAvx(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ gamma+8(FP), SI
	MOVQ beta+16(FP), DX
	VBROADCASTSD mean+24(FP), Y3
	VBROADCASTSD invStd+32(FP), Y4
	MOVQ n+40(FP), CX
	SHLQ $3, CX
	XORQ BX, BX

ewnormloop:
	CMPQ BX, CX
	JGE  ewnormdone
	VMOVUPD (DI)(BX*1), Y0
	VSUBPD  Y3, Y0, Y0       // v - mean
	VMULPD  Y4, Y0, Y0       // * invStd
	VMOVUPD (SI)(BX*1), Y1
	VMULPD  Y1, Y0, Y0       // * gamma[j]
	VMOVUPD (DX)(BX*1), Y1
	VADDPD  Y1, Y0, Y0       // + beta[j]
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     ewnormloop

ewnormdone:
	VZEROUPPER
	RET

// func gradARows2Avx(g0, g1, bt *float64, ldb, n, np24, np4 int, d0, d1 *float64)
//
// The dA = dOut·Bᵀ panel kernel for two rows: for r in {0, 1} and every p in
// [0, 24·np24 + 4·np4), dr[p] += Σ_j gr[j]·bt[j·ldb + p], the sum starting
// from +0 and adding one VMULPD-rounded product per j in ascending order
// (VMULPD then VADDPD, never a fused multiply-add) — per lane exactly the
// scalar loop's s += g[j]*b[p,j]; agrow[p] += s. Panels of 24 columns hold two rows × six registers of sums; the
// remaining columns run in panels of four. g1/d1 may alias g0/d0 (a trailing
// odd row): both rows' gradients are loaded before either is stored, so the
// duplicate stores write identical values.
TEXT ·gradARows2Avx(SB), NOSPLIT, $0-72
	MOVQ g0+0(FP), R8
	MOVQ g1+8(FP), R9
	MOVQ bt+16(FP), AX
	MOVQ ldb+24(FP), R14
	SHLQ $3, R14          // bt row stride in bytes
	MOVQ n+32(FP), CX
	SHLQ $3, CX           // n elements -> bytes
	MOVQ np24+40(FP), DX
	MOVQ np4+48(FP), R15
	MOVQ d0+56(FP), DI
	MOVQ d1+64(FP), SI

ga24loop:
	TESTQ DX, DX
	JZ    ga4loop
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ   AX, R10 // bt row j at the panel's first column
	XORQ   BX, BX  // byte offset of j in g0 and g1

ga24j:
	CMPQ         BX, CX
	JGE          ga24store
	VBROADCASTSD (R8)(BX*1), Y12
	VBROADCASTSD (R9)(BX*1), Y13
	VMOVUPD      0(R10), Y14
	VMULPD       Y14, Y12, Y15
	VADDPD       Y15, Y0, Y0
	VMULPD       Y14, Y13, Y15
	VADDPD       Y15, Y6, Y6
	VMOVUPD      32(R10), Y14
	VMULPD       Y14, Y12, Y15
	VADDPD       Y15, Y1, Y1
	VMULPD       Y14, Y13, Y15
	VADDPD       Y15, Y7, Y7
	VMOVUPD      64(R10), Y14
	VMULPD       Y14, Y12, Y15
	VADDPD       Y15, Y2, Y2
	VMULPD       Y14, Y13, Y15
	VADDPD       Y15, Y8, Y8
	VMOVUPD      96(R10), Y14
	VMULPD       Y14, Y12, Y15
	VADDPD       Y15, Y3, Y3
	VMULPD       Y14, Y13, Y15
	VADDPD       Y15, Y9, Y9
	VMOVUPD      128(R10), Y14
	VMULPD       Y14, Y12, Y15
	VADDPD       Y15, Y4, Y4
	VMULPD       Y14, Y13, Y15
	VADDPD       Y15, Y10, Y10
	VMOVUPD      160(R10), Y14
	VMULPD       Y14, Y12, Y15
	VADDPD       Y15, Y5, Y5
	VMULPD       Y14, Y13, Y15
	VADDPD       Y15, Y11, Y11
	ADDQ         R14, R10
	ADDQ         $8, BX
	JMP          ga24j

ga24store:
	VADDPD  0(DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3
	VADDPD  128(DI), Y4, Y4
	VADDPD  160(DI), Y5, Y5
	VADDPD  0(SI), Y6, Y6
	VADDPD  32(SI), Y7, Y7
	VADDPD  64(SI), Y8, Y8
	VADDPD  96(SI), Y9, Y9
	VADDPD  128(SI), Y10, Y10
	VADDPD  160(SI), Y11, Y11
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 0(SI)
	VMOVUPD Y7, 32(SI)
	VMOVUPD Y8, 64(SI)
	VMOVUPD Y9, 96(SI)
	VMOVUPD Y10, 128(SI)
	VMOVUPD Y11, 160(SI)
	ADDQ    $192, AX
	ADDQ    $192, DI
	ADDQ    $192, SI
	DECQ    DX
	JMP     ga24loop

ga4loop:
	TESTQ  R15, R15
	JZ     gadone
	VXORPD Y0, Y0, Y0
	VXORPD Y6, Y6, Y6
	MOVQ   AX, R10
	XORQ   BX, BX

ga4j:
	CMPQ         BX, CX
	JGE          ga4store
	VBROADCASTSD (R8)(BX*1), Y12
	VBROADCASTSD (R9)(BX*1), Y13
	VMOVUPD      (R10), Y14
	VMULPD       Y14, Y12, Y15
	VADDPD       Y15, Y0, Y0
	VMULPD       Y14, Y13, Y15
	VADDPD       Y15, Y6, Y6
	ADDQ         R14, R10
	ADDQ         $8, BX
	JMP          ga4j

ga4store:
	VADDPD  (DI), Y0, Y0
	VADDPD  (SI), Y6, Y6
	VMOVUPD Y0, (DI)
	VMOVUPD Y6, (SI)
	ADDQ    $32, AX
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    R15
	JMP     ga4loop

gadone:
	VZEROUPPER
	RET

// func gradBRows2Avx(a0, a1 *float64, lda int, dout *float64, ldg, m, np24, np4 int, d0, d1 *float64)
//
// The dB = Aᵀ·dOut panel kernel for two rows of dB: a0/a1 point at columns
// p0/p1 of A (stride lda), dout at dOut (stride ldg), d0/d1 at rows p0/p1 of
// dB. For r in {0, 1} and every j in [0, 24·np24 + 4·np4), dr[j] is loaded
// once, updated by ar[i]·g[i,j] for i ascending — VMULPD then VADDPD,
// exactly the scalar bgrow[j] += av*grow[j] — and stored
// once. A row whose ar[i] is ±0 (its bits shifted left by one are zero) is
// skipped for that i, the scalar loop's av == 0 test; NaN is not skipped.
// a1/d1 may alias a0/d0 (a trailing odd row): both rows are loaded before
// and stored after the i loop, so the duplicate stores write identical
// values.
TEXT ·gradBRows2Avx(SB), NOSPLIT, $0-80
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ lda+16(FP), R14
	SHLQ $3, R14          // A row stride in bytes
	MOVQ dout+24(FP), AX
	MOVQ ldg+32(FP), R15
	SHLQ $3, R15          // dOut row stride in bytes
	MOVQ m+40(FP), CX
	MOVQ np24+48(FP), DX
	MOVQ d0+64(FP), DI
	MOVQ d1+72(FP), SI

gb24loop:
	TESTQ DX, DX
	JZ    gb4start
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 0(SI), Y6
	VMOVUPD 32(SI), Y7
	VMOVUPD 64(SI), Y8
	VMOVUPD 96(SI), Y9
	VMOVUPD 128(SI), Y10
	VMOVUPD 160(SI), Y11
	MOVQ    R8, R10 // a0[i]
	MOVQ    R9, R11 // a1[i]
	MOVQ    AX, R12 // dOut row i at the panel's first column
	MOVQ    CX, BX  // rows left

gb24i:
	TESTQ        BX, BX
	JZ           gb24store
	MOVQ         (R10), R13
	SHLQ         $1, R13
	JZ           gb24row1
	VBROADCASTSD (R10), Y12
	VMOVUPD      0(R12), Y13
	VMULPD       Y12, Y13, Y14
	VADDPD       Y0, Y14, Y0
	VMOVUPD      32(R12), Y13
	VMULPD       Y12, Y13, Y14
	VADDPD       Y1, Y14, Y1
	VMOVUPD      64(R12), Y13
	VMULPD       Y12, Y13, Y14
	VADDPD       Y2, Y14, Y2
	VMOVUPD      96(R12), Y13
	VMULPD       Y12, Y13, Y14
	VADDPD       Y3, Y14, Y3
	VMOVUPD      128(R12), Y13
	VMULPD       Y12, Y13, Y14
	VADDPD       Y4, Y14, Y4
	VMOVUPD      160(R12), Y13
	VMULPD       Y12, Y13, Y14
	VADDPD       Y5, Y14, Y5

gb24row1:
	MOVQ         (R11), R13
	SHLQ         $1, R13
	JZ           gb24next
	VBROADCASTSD (R11), Y12
	VMOVUPD      0(R12), Y13
	VMULPD       Y12, Y13, Y14
	VADDPD       Y6, Y14, Y6
	VMOVUPD      32(R12), Y13
	VMULPD       Y12, Y13, Y14
	VADDPD       Y7, Y14, Y7
	VMOVUPD      64(R12), Y13
	VMULPD       Y12, Y13, Y14
	VADDPD       Y8, Y14, Y8
	VMOVUPD      96(R12), Y13
	VMULPD       Y12, Y13, Y14
	VADDPD       Y9, Y14, Y9
	VMOVUPD      128(R12), Y13
	VMULPD       Y12, Y13, Y14
	VADDPD       Y10, Y14, Y10
	VMOVUPD      160(R12), Y13
	VMULPD       Y12, Y13, Y14
	VADDPD       Y11, Y14, Y11

gb24next:
	ADDQ R14, R10
	ADDQ R14, R11
	ADDQ R15, R12
	DECQ BX
	JMP  gb24i

gb24store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 0(SI)
	VMOVUPD Y7, 32(SI)
	VMOVUPD Y8, 64(SI)
	VMOVUPD Y9, 96(SI)
	VMOVUPD Y10, 128(SI)
	VMOVUPD Y11, 160(SI)
	ADDQ    $192, AX
	ADDQ    $192, DI
	ADDQ    $192, SI
	DECQ    DX
	JMP     gb24loop

gb4start:
	MOVQ np4+56(FP), DX

gb4loop:
	TESTQ   DX, DX
	JZ      gbdone
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y6
	MOVQ    R8, R10
	MOVQ    R9, R11
	MOVQ    AX, R12
	MOVQ    CX, BX

gb4i:
	TESTQ        BX, BX
	JZ           gb4store
	MOVQ         (R10), R13
	SHLQ         $1, R13
	JZ           gb4row1
	VBROADCASTSD (R10), Y12
	VMOVUPD      (R12), Y13
	VMULPD       Y12, Y13, Y14
	VADDPD       Y0, Y14, Y0

gb4row1:
	MOVQ         (R11), R13
	SHLQ         $1, R13
	JZ           gb4next
	VBROADCASTSD (R11), Y12
	VMOVUPD      (R12), Y13
	VMULPD       Y12, Y13, Y14
	VADDPD       Y6, Y14, Y6

gb4next:
	ADDQ R14, R10
	ADDQ R14, R11
	ADDQ R15, R12
	DECQ BX
	JMP  gb4i

gb4store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y6, (SI)
	ADDQ    $32, AX
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    DX
	JMP     gb4loop

gbdone:
	VZEROUPPER
	RET
