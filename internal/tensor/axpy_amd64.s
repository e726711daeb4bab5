//go:build amd64 && !purego

#include "textflag.h"

// Every product kernel here computes acc = acc + (a*b) per term: one rounded
// VMULPD/VMULSD, then one rounded VADDPD/VADDSD, never VFMADD, terms in the
// same order as the portable loops in axpy.go — so the bits are theirs.
// reluAVX does no arithmetic: a max selects one of its operands' bits.
// softmaxAVX repeats exp.go's and softmaxGeneric's operations, operand for
// operand (EXP4 below). The AVX tier uses only AVX1 instructions (the
// integer work of building 2ᵏ runs on 128-bit halves); the AVX-512 tier at
// the end of the file uses AVX-512F alone.

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV               // XCR0 into DX:AX
	ANDL $6, AX          // XMM (bit 1) and YMM (bit 2) state saved by the OS
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func axpyAVX(a float64, x, y []float64)
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	VBROADCASTSD a+0(FP), Y0

loop8:
	CMPQ    CX, $8
	JLT     tail4
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     loop8

tail4:
	CMPQ    CX, $4
	JLT     tail1
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX

tail1:
	TESTQ  CX, CX
	JEQ    done
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    tail1

done:
	VZEROUPPER
	RET

// func axpyRowsAVX(y, x, w []float64, stride int)
//
// Register use: DI = &y[j], CX = columns left, SI = &x[0], BX = len(x),
// DX = &w[j] (row 0 of the current panel), R8 = stride in bytes; per panel
// R9 = &x[k], R10 = &w[k*stride+j], R11 = rows left.
TEXT ·axpyRowsAVX(SB), NOSPLIT, $0-80
	MOVQ  y_base+0(FP), DI
	MOVQ  y_len+8(FP), CX
	MOVQ  x_base+24(FP), SI
	MOVQ  x_len+32(FP), BX
	MOVQ  w_base+48(FP), DX
	MOVQ  stride+72(FP), R8
	SHLQ  $3, R8
	TESTQ BX, BX
	JEQ   rowsdone

panel16:
	CMPQ    CX, $16
	JLT     panel8
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4
	MOVQ    SI, R9
	MOVQ    DX, R10
	MOVQ    BX, R11

rows16:
	VBROADCASTSD (R9), Y0
	VMULPD       (R10), Y0, Y5
	VMULPD       32(R10), Y0, Y6
	VMULPD       64(R10), Y0, Y7
	VMULPD       96(R10), Y0, Y8
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	VADDPD       Y8, Y4, Y4
	ADDQ         $8, R9
	ADDQ         R8, R10
	DECQ         R11
	JNZ          rows16
	VMOVUPD      Y1, (DI)
	VMOVUPD      Y2, 32(DI)
	VMOVUPD      Y3, 64(DI)
	VMOVUPD      Y4, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, DX
	SUBQ         $16, CX
	JMP          panel16

panel8:
	CMPQ    CX, $8
	JLT     panel4
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	MOVQ    SI, R9
	MOVQ    DX, R10
	MOVQ    BX, R11

rows8:
	VBROADCASTSD (R9), Y0
	VMULPD       (R10), Y0, Y5
	VMULPD       32(R10), Y0, Y6
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	ADDQ         $8, R9
	ADDQ         R8, R10
	DECQ         R11
	JNZ          rows8
	VMOVUPD      Y1, (DI)
	VMOVUPD      Y2, 32(DI)
	ADDQ         $64, DI
	ADDQ         $64, DX
	SUBQ         $8, CX

panel4:
	CMPQ    CX, $4
	JLT     col1
	VMOVUPD (DI), Y1
	MOVQ    SI, R9
	MOVQ    DX, R10
	MOVQ    BX, R11

rows4:
	VBROADCASTSD (R9), Y0
	VMULPD       (R10), Y0, Y5
	VADDPD       Y5, Y1, Y1
	ADDQ         $8, R9
	ADDQ         R8, R10
	DECQ         R11
	JNZ          rows4
	VMOVUPD      Y1, (DI)
	ADDQ         $32, DI
	ADDQ         $32, DX
	SUBQ         $4, CX

col1:
	TESTQ  CX, CX
	JEQ    rowsdone
	VMOVSD (DI), X1
	MOVQ   SI, R9
	MOVQ   DX, R10
	MOVQ   BX, R11

rows1:
	VMOVSD (R9), X0
	VMULSD (R10), X0, X5
	VADDSD X5, X1, X1
	ADDQ   $8, R9
	ADDQ   R8, R10
	DECQ   R11
	JNZ    rows1
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	ADDQ   $8, DX
	DECQ   CX
	JMP    col1

rowsdone:
	VZEROUPPER
	RET

// func axpyNonzeroRowsAVX(y, x, w []float64, stride int)
//
// Per chunk of up to 64 rows, two steps. The first builds the chunk's row
// mask, bit i set when row i's x is not zero: VCMPPD predicate 4 (NEQ_UQ:
// x[k] != 0, true for NaN) and VMOVMSKPD give four bits per compare, then a
// VCMPSD one bit per row of a 1–3 row tail. The second is axpyRowsAVX's
// panel sweep (y in registers, 24-, 8-, 4- and 1-column panels) over the
// set bits alone: BSFQ finds the lowest, its row is added, and the bit is
// cleared, so the rows are added in ascending k. A zero row is never added,
// exactly as in the portable loop, no branch depends on the zero pattern
// beyond the count of set bits, and a chunk without a set bit is passed
// over. A 24-column panel covers the expert FFN's Dim-wide output in one
// pass.
//
// Register use: SI = &x[chunk start], BX = rows after the chunk, R8 =
// stride in bytes, R12 = &w[chunk start row], R10 = the chunk's rows (then
// their bytes in w), R11 = the chunk mask, R9 = &x[k] while masking, then
// &x[chunk end]; per panel DI = &y[j], CX = columns left, DX = R12 + 8·j,
// R13 = the bits not yet visited and AX = the visited row. Y10 is +0.
TEXT ·axpyNonzeroRowsAVX(SB), NOSPLIT, $0-80
	MOVQ   x_base+24(FP), SI
	MOVQ   x_len+32(FP), BX
	MOVQ   w_base+48(FP), R12
	MOVQ   stride+72(FP), R8
	SHLQ   $3, R8
	VXORPD X10, X10, X10

nzchunk:
	TESTQ   BX, BX
	JEQ     nzdone
	MOVQ    $64, R10
	CMPQ    BX, R10
	CMOVQLT BX, R10
	SUBQ    R10, BX
	XORQ    R11, R11
	XORQ    CX, CX
	MOVQ    SI, R9
	PCALIGN $32

nzmask4:
	LEAQ      4(CX), AX
	CMPQ      AX, R10
	JGT       nzmask1
	VMOVUPD   (R9), Y0
	VCMPPD    $4, Y10, Y0, Y1
	VMOVMSKPD Y1, AX
	SHLQ      CX, AX
	ORQ       AX, R11
	ADDQ      $32, R9
	ADDQ      $4, CX
	JMP       nzmask4

nzmask1:
	CMPQ      CX, R10
	JGE       nzmasked
	VMOVSD    (R9), X0
	VCMPSD    $4, X10, X0, X1
	VMOVMSKPD X1, AX
	ANDL      $1, AX
	SHLQ      CX, AX
	ORQ       AX, R11
	ADDQ      $8, R9
	INCQ      CX
	JMP       nzmask1

nzmasked:
	IMULQ R8, R10
	TESTQ R11, R11
	JEQ   nznext
	MOVQ  y_base+0(FP), DI
	MOVQ  y_len+8(FP), CX
	MOVQ  R12, DX

nzpanel24:
	CMPQ    CX, $24
	JLT     nzpanel8
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4
	VMOVUPD 128(DI), Y5
	VMOVUPD 160(DI), Y6
	MOVQ    R11, R13
	PCALIGN $32

nzrows24:
	BSFQ         R13, AX
	VBROADCASTSD (SI)(AX*8), Y0
	IMULQ        R8, AX
	VMULPD       (DX)(AX*1), Y0, Y7
	VMULPD       32(DX)(AX*1), Y0, Y8
	VMULPD       64(DX)(AX*1), Y0, Y9
	VMULPD       96(DX)(AX*1), Y0, Y11
	VMULPD       128(DX)(AX*1), Y0, Y12
	VMULPD       160(DX)(AX*1), Y0, Y13
	VADDPD       Y7, Y1, Y1
	VADDPD       Y8, Y2, Y2
	VADDPD       Y9, Y3, Y3
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5
	VADDPD       Y13, Y6, Y6
	LEAQ         -1(R13), AX
	ANDQ         AX, R13
	JNZ          nzrows24
	VMOVUPD      Y1, (DI)
	VMOVUPD      Y2, 32(DI)
	VMOVUPD      Y3, 64(DI)
	VMOVUPD      Y4, 96(DI)
	VMOVUPD      Y5, 128(DI)
	VMOVUPD      Y6, 160(DI)
	ADDQ         $192, DI
	ADDQ         $192, DX
	SUBQ         $24, CX
	JMP          nzpanel24

nzpanel8:
	CMPQ    CX, $8
	JLT     nzpanel4
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	MOVQ    R11, R13
	PCALIGN $32

nzrows8:
	BSFQ         R13, AX
	VBROADCASTSD (SI)(AX*8), Y0
	IMULQ        R8, AX
	VMULPD       (DX)(AX*1), Y0, Y7
	VMULPD       32(DX)(AX*1), Y0, Y8
	VADDPD       Y7, Y1, Y1
	VADDPD       Y8, Y2, Y2
	LEAQ         -1(R13), AX
	ANDQ         AX, R13
	JNZ          nzrows8
	VMOVUPD      Y1, (DI)
	VMOVUPD      Y2, 32(DI)
	ADDQ         $64, DI
	ADDQ         $64, DX
	SUBQ         $8, CX
	JMP          nzpanel8

nzpanel4:
	CMPQ    CX, $4
	JLT     nzcol1
	VMOVUPD (DI), Y1
	MOVQ    R11, R13
	PCALIGN $32

nzrows4:
	BSFQ         R13, AX
	VBROADCASTSD (SI)(AX*8), Y0
	IMULQ        R8, AX
	VMULPD       (DX)(AX*1), Y0, Y7
	VADDPD       Y7, Y1, Y1
	LEAQ         -1(R13), AX
	ANDQ         AX, R13
	JNZ          nzrows4
	VMOVUPD      Y1, (DI)
	ADDQ         $32, DI
	ADDQ         $32, DX
	SUBQ         $4, CX

nzcol1:
	TESTQ  CX, CX
	JEQ    nznext
	VMOVSD (DI), X1
	MOVQ   R11, R13
	PCALIGN $32

nzrows1:
	BSFQ   R13, AX
	VMOVSD (SI)(AX*8), X0
	IMULQ  R8, AX
	VMULSD (DX)(AX*1), X0, X7
	VADDSD X7, X1, X1
	LEAQ   -1(R13), AX
	ANDQ   AX, R13
	JNZ    nzrows1
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	ADDQ   $8, DX
	DECQ   CX
	JMP    nzcol1

nznext:
	MOVQ R9, SI
	ADDQ R10, R12
	JMP  nzchunk

nzdone:
	VZEROUPPER
	RET

// func outerRowsAVX(g, x, y []float64, stride int)
//
// axpyRowsAVX's panels turned around: the panel's slice of y, not of the
// output, is what stays in registers, and every row of G in the panel takes
// one load, one add and one store. Per row the products x[k]·y go to Y5–Y8
// and row k's values are the add's memory operand, as in axpyAVX.
//
// Register use: DI = &y[j], CX = columns left, SI = &x[0], BX = len(x),
// DX = &g[j] (row 0 of the current panel), R8 = stride in bytes; per panel
// R9 = &x[k], R10 = &g[k*stride+j], R11 = rows left.
TEXT ·outerRowsAVX(SB), NOSPLIT, $0-80
	MOVQ  g_base+0(FP), DX
	MOVQ  x_base+24(FP), SI
	MOVQ  x_len+32(FP), BX
	MOVQ  y_base+48(FP), DI
	MOVQ  y_len+56(FP), CX
	MOVQ  stride+72(FP), R8
	SHLQ  $3, R8
	TESTQ BX, BX
	JEQ   outerdone

opanel16:
	CMPQ    CX, $16
	JLT     opanel8
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4
	MOVQ    SI, R9
	MOVQ    DX, R10
	MOVQ    BX, R11
	PCALIGN $32

orows16:
	VBROADCASTSD (R9), Y0
	VMULPD       Y1, Y0, Y5
	VMULPD       Y2, Y0, Y6
	VMULPD       Y3, Y0, Y7
	VMULPD       Y4, Y0, Y8
	VADDPD       (R10), Y5, Y5
	VADDPD       32(R10), Y6, Y6
	VADDPD       64(R10), Y7, Y7
	VADDPD       96(R10), Y8, Y8
	VMOVUPD      Y5, (R10)
	VMOVUPD      Y6, 32(R10)
	VMOVUPD      Y7, 64(R10)
	VMOVUPD      Y8, 96(R10)
	ADDQ         $8, R9
	ADDQ         R8, R10
	DECQ         R11
	JNZ          orows16
	ADDQ         $128, DI
	ADDQ         $128, DX
	SUBQ         $16, CX
	JMP          opanel16

opanel8:
	CMPQ    CX, $8
	JLT     opanel4
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	MOVQ    SI, R9
	MOVQ    DX, R10
	MOVQ    BX, R11

orows8:
	VBROADCASTSD (R9), Y0
	VMULPD       Y1, Y0, Y5
	VMULPD       Y2, Y0, Y6
	VADDPD       (R10), Y5, Y5
	VADDPD       32(R10), Y6, Y6
	VMOVUPD      Y5, (R10)
	VMOVUPD      Y6, 32(R10)
	ADDQ         $8, R9
	ADDQ         R8, R10
	DECQ         R11
	JNZ          orows8
	ADDQ         $64, DI
	ADDQ         $64, DX
	SUBQ         $8, CX

opanel4:
	CMPQ    CX, $4
	JLT     ocol1
	VMOVUPD (DI), Y1
	MOVQ    SI, R9
	MOVQ    DX, R10
	MOVQ    BX, R11

orows4:
	VBROADCASTSD (R9), Y0
	VMULPD       Y1, Y0, Y5
	VADDPD       (R10), Y5, Y5
	VMOVUPD      Y5, (R10)
	ADDQ         $8, R9
	ADDQ         R8, R10
	DECQ         R11
	JNZ          orows4
	ADDQ         $32, DI
	ADDQ         $32, DX
	SUBQ         $4, CX

ocol1:
	TESTQ  CX, CX
	JEQ    outerdone
	VMOVSD (DI), X1
	MOVQ   SI, R9
	MOVQ   DX, R10
	MOVQ   BX, R11

orows1:
	VMOVSD (R9), X0
	VMULSD X1, X0, X5
	VADDSD (R10), X5, X5
	VMOVSD X5, (R10)
	ADDQ   $8, R9
	ADDQ   R8, R10
	DECQ   R11
	JNZ    orows1
	ADDQ   $8, DI
	ADDQ   $8, DX
	DECQ   CX
	JMP    ocol1

outerdone:
	VZEROUPPER
	RET

// func outerNonzeroRowsAVX(g, x, y []float64, stride int)
//
// axpyNonzeroRowsAVX's per-chunk row mask, built the same way, then
// outerRowsAVX's panel sweep (the panel's slice of y in registers, 24-, 8-,
// 4- and 1-column panels) over its set bits alone, lowest first: every
// nonzero row of G in the panel takes one load, one add and one store, a
// zero row is never touched, exactly as in the portable loop, and a chunk
// without a set bit is passed over.
//
// Register use: SI = &x[chunk start], BX = rows after the chunk, R8 =
// stride in bytes, R12 = &g[chunk start row], R10 = the chunk's rows (then
// their bytes in g), R11 = the chunk mask, R9 = &x[k] while masking, then
// &x[chunk end]; per panel DI = &y[j], CX = columns left, DX = R12 + 8·j,
// R13 = the bits not yet visited and AX = the visited row. Y10 is +0.
TEXT ·outerNonzeroRowsAVX(SB), NOSPLIT, $0-80
	MOVQ   g_base+0(FP), R12
	MOVQ   x_base+24(FP), SI
	MOVQ   x_len+32(FP), BX
	MOVQ   stride+72(FP), R8
	SHLQ   $3, R8
	VXORPD X10, X10, X10

onzchunk:
	TESTQ   BX, BX
	JEQ     onzdone
	MOVQ    $64, R10
	CMPQ    BX, R10
	CMOVQLT BX, R10
	SUBQ    R10, BX
	XORQ    R11, R11
	XORQ    CX, CX
	MOVQ    SI, R9
	PCALIGN $32

onzmask4:
	LEAQ      4(CX), AX
	CMPQ      AX, R10
	JGT       onzmask1
	VMOVUPD   (R9), Y0
	VCMPPD    $4, Y10, Y0, Y1
	VMOVMSKPD Y1, AX
	SHLQ      CX, AX
	ORQ       AX, R11
	ADDQ      $32, R9
	ADDQ      $4, CX
	JMP       onzmask4

onzmask1:
	CMPQ      CX, R10
	JGE       onzmasked
	VMOVSD    (R9), X0
	VCMPSD    $4, X10, X0, X1
	VMOVMSKPD X1, AX
	ANDL      $1, AX
	SHLQ      CX, AX
	ORQ       AX, R11
	ADDQ      $8, R9
	INCQ      CX
	JMP       onzmask1

onzmasked:
	IMULQ R8, R10
	TESTQ R11, R11
	JEQ   onznext
	MOVQ  y_base+48(FP), DI
	MOVQ  y_len+56(FP), CX
	MOVQ  R12, DX

onzpanel24:
	CMPQ    CX, $24
	JLT     onzpanel8
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4
	VMOVUPD 128(DI), Y5
	VMOVUPD 160(DI), Y6
	MOVQ    R11, R13
	PCALIGN $32

onzrows24:
	BSFQ         R13, AX
	VBROADCASTSD (SI)(AX*8), Y0
	IMULQ        R8, AX
	VMULPD       Y1, Y0, Y7
	VMULPD       Y2, Y0, Y8
	VMULPD       Y3, Y0, Y9
	VMULPD       Y4, Y0, Y11
	VMULPD       Y5, Y0, Y12
	VMULPD       Y6, Y0, Y13
	VADDPD       (DX)(AX*1), Y7, Y7
	VADDPD       32(DX)(AX*1), Y8, Y8
	VADDPD       64(DX)(AX*1), Y9, Y9
	VADDPD       96(DX)(AX*1), Y11, Y11
	VADDPD       128(DX)(AX*1), Y12, Y12
	VADDPD       160(DX)(AX*1), Y13, Y13
	VMOVUPD      Y7, (DX)(AX*1)
	VMOVUPD      Y8, 32(DX)(AX*1)
	VMOVUPD      Y9, 64(DX)(AX*1)
	VMOVUPD      Y11, 96(DX)(AX*1)
	VMOVUPD      Y12, 128(DX)(AX*1)
	VMOVUPD      Y13, 160(DX)(AX*1)
	LEAQ         -1(R13), AX
	ANDQ         AX, R13
	JNZ          onzrows24
	ADDQ         $192, DI
	ADDQ         $192, DX
	SUBQ         $24, CX
	JMP          onzpanel24

onzpanel8:
	CMPQ    CX, $8
	JLT     onzpanel4
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	MOVQ    R11, R13
	PCALIGN $32

onzrows8:
	BSFQ         R13, AX
	VBROADCASTSD (SI)(AX*8), Y0
	IMULQ        R8, AX
	VMULPD       Y1, Y0, Y7
	VMULPD       Y2, Y0, Y8
	VADDPD       (DX)(AX*1), Y7, Y7
	VADDPD       32(DX)(AX*1), Y8, Y8
	VMOVUPD      Y7, (DX)(AX*1)
	VMOVUPD      Y8, 32(DX)(AX*1)
	LEAQ         -1(R13), AX
	ANDQ         AX, R13
	JNZ          onzrows8
	ADDQ         $64, DI
	ADDQ         $64, DX
	SUBQ         $8, CX
	JMP          onzpanel8

onzpanel4:
	CMPQ    CX, $4
	JLT     onzcol1
	VMOVUPD (DI), Y1
	MOVQ    R11, R13
	PCALIGN $32

onzrows4:
	BSFQ         R13, AX
	VBROADCASTSD (SI)(AX*8), Y0
	IMULQ        R8, AX
	VMULPD       Y1, Y0, Y7
	VADDPD       (DX)(AX*1), Y7, Y7
	VMOVUPD      Y7, (DX)(AX*1)
	LEAQ         -1(R13), AX
	ANDQ         AX, R13
	JNZ          onzrows4
	ADDQ         $32, DI
	ADDQ         $32, DX
	SUBQ         $4, CX

onzcol1:
	TESTQ  CX, CX
	JEQ    onznext
	VMOVSD (DI), X1
	MOVQ   R11, R13
	PCALIGN $32

onzrows1:
	BSFQ   R13, AX
	VMOVSD (SI)(AX*8), X0
	IMULQ  R8, AX
	VMULSD X1, X0, X7
	VADDSD (DX)(AX*1), X7, X7
	VMOVSD X7, (DX)(AX*1)
	LEAQ   -1(R13), AX
	ANDQ   AX, R13
	JNZ    onzrows1
	ADDQ   $8, DI
	ADDQ   $8, DX
	DECQ   CX
	JMP    onzcol1

onznext:
	MOVQ R9, SI
	ADDQ R10, R12
	JMP  onzchunk

onzdone:
	VZEROUPPER
	RET

// DOTBLOCK adds one 4×4 block of W into the accumulator acc: the rows at
// base, base+R8, base+AX and base+R12 (lanes 0–3), columns k..k+3. The
// transpose is half done by the loads: each YMM gets two columns of two rows,
// lanes 0 and 2 or 1 and 3 (VMOVUPD, then VINSERTF128 from memory into the
// upper half, both on the load ports). Multiplied by x[k..k+1] or
// x[k+2..k+3] (broadcast per half in Y8/Y9), one VUNPCKLPD/VUNPCKHPD per
// column then pairs the halves into a vector of four products, one per row,
// and the four adds run in ascending k.
#define DOTBLOCK(base, acc) \
	VMOVUPD     (base), X0; \
	VINSERTF128 $1, (base)(AX*1), Y0, Y0; \
	VMOVUPD     (base)(R8*1), X1; \
	VINSERTF128 $1, (base)(R12*1), Y1, Y1; \
	VMOVUPD     16(base), X2; \
	VINSERTF128 $1, 16(base)(AX*1), Y2, Y2; \
	VMOVUPD     16(base)(R8*1), X3; \
	VINSERTF128 $1, 16(base)(R12*1), Y3, Y3; \
	VMULPD      Y8, Y0, Y0; \
	VMULPD      Y8, Y1, Y1; \
	VMULPD      Y9, Y2, Y2; \
	VMULPD      Y9, Y3, Y3; \
	VUNPCKLPD   Y1, Y0, Y4; \
	VUNPCKHPD   Y1, Y0, Y5; \
	VUNPCKLPD   Y3, Y2, Y6; \
	VUNPCKHPD   Y3, Y2, Y7; \
	VADDPD      Y4, acc, acc; \
	VADDPD      Y5, acc, acc; \
	VADDPD      Y6, acc, acc; \
	VADDPD      Y7, acc, acc

// DOTTERM adds one term into acc for the same four rows: column k, gathered
// from the rows, times x[k] broadcast in Y8.
#define DOTTERM(base, acc) \
	VMOVSD      (base), X0; \
	VMOVHPD     (base)(R8*1), X0, X0; \
	VMOVSD      (base)(AX*1), X1; \
	VMOVHPD     (base)(R12*1), X1, X1; \
	VINSERTF128 $1, X1, Y0, Y0; \
	VMULPD      Y8, Y0, Y0; \
	VADDPD      Y0, acc, acc

// func dotRowsAVX(y, x, w []float64, stride int)
//
// Register use: DI = &y[j], CX = rows left, SI = &x[0], BX = len(x),
// DX = &w[j*stride]; R8, AX and R12 = the byte offsets of lanes 1, 2 and 3's
// rows from lane 0's (stride, 2·stride and 3·stride); per row group R9 =
// &x[k], R10 = &w[j*stride+k], R13 = R10 four rows down, R11 = terms left.
// Y14 accumulates rows j..j+3 and Y15 rows j+4..j+7, each lane from +0. The
// last 1–3 rows run as one more 4-row group whose missing lanes re-read the
// last row, and only the real lanes are stored.
TEXT ·dotRowsAVX(SB), NOSPLIT, $0-80
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), BX
	MOVQ w_base+48(FP), DX
	MOVQ stride+72(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*1), AX
	LEAQ (R8)(R8*2), R12

dgroup8:
	CMPQ    CX, $8
	JLT     dgroup4
	VXORPD  Y14, Y14, Y14
	VXORPD  Y15, Y15, Y15
	MOVQ    SI, R9
	MOVQ    DX, R10
	LEAQ    (DX)(R8*4), R13
	MOVQ    BX, R11
	PCALIGN $32

dblock8:
	CMPQ           R11, $4
	JLT            dterm8
	VBROADCASTF128 (R9), Y8
	VBROADCASTF128 16(R9), Y9
	DOTBLOCK(R10, Y14)
	DOTBLOCK(R13, Y15)
	ADDQ           $32, R9
	ADDQ           $32, R10
	ADDQ           $32, R13
	SUBQ           $4, R11
	JMP            dblock8

dterm8:
	TESTQ        R11, R11
	JEQ          dstore8
	VBROADCASTSD (R9), Y8
	DOTTERM(R10, Y14)
	DOTTERM(R13, Y15)
	ADDQ         $8, R9
	ADDQ         $8, R10
	ADDQ         $8, R13
	DECQ         R11
	JMP          dterm8

dstore8:
	VMOVUPD Y14, (DI)
	VMOVUPD Y15, 32(DI)
	ADDQ    $64, DI
	LEAQ    (DX)(R8*8), DX
	SUBQ    $8, CX
	JMP     dgroup8

dgroup4:
	TESTQ CX, CX
	JEQ   ddone
	CMPQ  CX, $4
	JGE   dacc4
	MOVQ  R8, AX  // two rows left: lanes 1–3 read row 1
	MOVQ  R8, R12
	CMPQ  CX, $2
	JEQ   dacc4
	JGT   dlast3
	XORL  R8, R8  // one row left: every lane reads row 0
	XORL  AX, AX
	XORL  R12, R12
	JMP   dacc4

dlast3:
	LEAQ (R8)(R8*1), AX // three rows left: lanes 1–3 read rows 1, 2, 2
	MOVQ AX, R12

dacc4:
	VXORPD  Y14, Y14, Y14
	MOVQ    SI, R9
	MOVQ    DX, R10
	MOVQ    BX, R11
	PCALIGN $32

dblock4:
	CMPQ           R11, $4
	JLT            dterm4
	VBROADCASTF128 (R9), Y8
	VBROADCASTF128 16(R9), Y9
	DOTBLOCK(R10, Y14)
	ADDQ           $32, R9
	ADDQ           $32, R10
	SUBQ           $4, R11
	JMP            dblock4

dterm4:
	TESTQ        R11, R11
	JEQ          dstore4
	VBROADCASTSD (R9), Y8
	DOTTERM(R10, Y14)
	ADDQ         $8, R9
	ADDQ         $8, R10
	DECQ         R11
	JMP          dterm4

dstore4:
	CMPQ    CX, $4
	JLT     dstorepart
	VMOVUPD Y14, (DI)
	ADDQ    $32, DI
	LEAQ    (DX)(R8*4), DX
	SUBQ    $4, CX
	JMP     dgroup4

dstorepart:
	VMOVSD       X14, (DI)
	CMPQ         CX, $2
	JLT          ddone
	VMOVHPD      X14, 8(DI)
	CMPQ         CX, $3
	JLT          ddone
	VEXTRACTF128 $1, Y14, X0
	VMOVSD       X0, 16(DI)

ddone:
	VZEROUPPER
	RET

// D4ROWS adds one term into the accumulators of four rows: the elements at
// base, base+R8, base+2·R8 and base+R12 — column i of four consecutive rows
// of W — each broadcast, times x's row i of four vectors in Y8.
#define D4ROWS(base, a0, a1, a2, a3) \
	VBROADCASTSD (base), Y9; \
	VBROADCASTSD (base)(R8*1), Y10; \
	VBROADCASTSD (base)(R8*2), Y11; \
	VBROADCASTSD (base)(R12*1), Y12; \
	VMULPD       Y8, Y9, Y9; \
	VMULPD       Y8, Y10, Y10; \
	VMULPD       Y8, Y11, Y11; \
	VMULPD       Y8, Y12, Y12; \
	VADDPD       Y9, a0, a0; \
	VADDPD       Y10, a1, a1; \
	VADDPD       Y11, a2, a2; \
	VADDPD       Y12, a3, a3

// func dotRows4AVX(y, x, w []float64, stride int)
//
// Lane l is vector l throughout: row j's accumulator takes w[j][i]
// broadcast times the four-element row i of x, so each lane adds its own
// dot product's terms in ascending i, from +0, and the result row stores as
// it stands — no transpose. Eight rows are in flight (Y0–Y7), then one
// group of four (Y0–Y3), then single rows (Y0).
//
// Register use: DI = &y[4j], CX = rows left, SI = &x[0], BX = terms per
// row, DX = &w[j*stride], R8 = stride in bytes, R12 = 3·stride; per row
// group R9 = &x[4i], R10 = &w[j*stride+i], R13 = R10 four rows down, R11 =
// terms left.
TEXT ·dotRows4AVX(SB), NOSPLIT, $0-80
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	SHRQ $2, CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), BX
	SHRQ $2, BX
	MOVQ w_base+48(FP), DX
	MOVQ stride+72(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R12

d4group8:
	CMPQ    CX, $8
	JLT     d4group4
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	MOVQ    SI, R9
	MOVQ    DX, R10
	LEAQ    (DX)(R8*4), R13
	MOVQ    BX, R11
	TESTQ   R11, R11
	JEQ     d4store8
	PCALIGN $32

d4terms8:
	VMOVUPD (R9), Y8
	D4ROWS(R10, Y0, Y1, Y2, Y3)
	D4ROWS(R13, Y4, Y5, Y6, Y7)
	ADDQ    $32, R9
	ADDQ    $8, R10
	ADDQ    $8, R13
	DECQ    R11
	JNZ     d4terms8

d4store8:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	LEAQ    (DX)(R8*8), DX
	SUBQ    $8, CX
	JMP     d4group8

d4group4:
	CMPQ   CX, $4
	JLT    d4row1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R9
	MOVQ   DX, R10
	MOVQ   BX, R11
	TESTQ   R11, R11
	JEQ     d4store4
	PCALIGN $32

d4terms4:
	VMOVUPD (R9), Y8
	D4ROWS(R10, Y0, Y1, Y2, Y3)
	ADDQ    $32, R9
	ADDQ    $8, R10
	DECQ    R11
	JNZ     d4terms4

d4store4:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (DX)(R8*4), DX
	SUBQ    $4, CX

d4row1:
	TESTQ  CX, CX
	JEQ    d4done
	VXORPD Y0, Y0, Y0
	MOVQ   SI, R9
	MOVQ   DX, R10
	MOVQ   BX, R11
	TESTQ  R11, R11
	JEQ    d4store1
	PCALIGN $32

d4terms1:
	VBROADCASTSD (R10), Y9
	VMULPD       (R9), Y9, Y9
	VADDPD       Y9, Y0, Y0
	ADDQ         $32, R9
	ADDQ         $8, R10
	DECQ         R11
	JNZ          d4terms1

d4store1:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    R8, DX
	DECQ    CX
	JMP     d4row1

d4done:
	VZEROUPPER
	RET

// func reluAVX(y []float64)
//
// Go's VMAXPD m, Y0, Y1 is Intel's VMAXPD ymm1, ymm0, m: Y0 = +0 is the
// first source and y the second. MAXPD returns the first source only when
// it is greater than the second, and the second otherwise — also when both
// are zero or either is NaN — so y[j] keeps its bits unless it is below
// zero, exactly like reluGeneric's compare. DI = &y[j], CX = elements left.
TEXT ·reluAVX(SB), NOSPLIT, $0-24
	MOVQ   y_base+0(FP), DI
	MOVQ   y_len+8(FP), CX
	VXORPD Y0, Y0, Y0

relu16:
	CMPQ    CX, $16
	JLT     relu4
	VMAXPD  (DI), Y0, Y1
	VMAXPD  32(DI), Y0, Y2
	VMAXPD  64(DI), Y0, Y3
	VMAXPD  96(DI), Y0, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     relu16

relu4:
	CMPQ    CX, $4
	JLT     relu1
	VMAXPD  (DI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     relu4

relu1:
	TESTQ  CX, CX
	JEQ    reludone
	VMAXSD (DI), X0, X1
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JMP    relu1

reludone:
	VZEROUPPER
	RET

// Exp's constants (exp.go), each repeated in four lanes so that it can be a
// 256-bit memory operand; expBias is 1023 in four int32 lanes and smTail
// the source of softmaxAVX's tail masks.
#define CONST4(sym, bits) \
	DATA sym<>+0(SB)/8, $bits; \
	DATA sym<>+8(SB)/8, $bits; \
	DATA sym<>+16(SB)/8, $bits; \
	DATA sym<>+24(SB)/8, $bits; \
	GLOBL sym<>(SB), RODATA|NOPTR, $32

CONST4(expLog2e, 0x3ff71547652b82fe)
CONST4(expLn2Hi, 0x3fe62e42fee00000)
CONST4(expLn2Lo, 0x3dea39ef35793c76)
CONST4(expP1, 0x3fc5555555555555)
CONST4(expP2, 0xbf66c16c16bebd93)
CONST4(expP3, 0x3f11566aaf25de2c)
CONST4(expP4, 0xbebbbd41c5d26bf1)
CONST4(expP5, 0x3e66376972bea4d0)
CONST4(expOverflow, 0x40862e42fefa39ef)
CONST4(expUnderflow, 0xc0874910d52d3051)
CONST4(expNearZero, 0x3e30000000000000)
CONST4(expHalf, 0x3fe0000000000000)
CONST4(expOne, 0x3ff0000000000000)
CONST4(expTwo, 0x4000000000000000)
CONST4(expInf, 0x7ff0000000000000)
CONST4(expNegInf, 0xfff0000000000000)
CONST4(expSign, 0x8000000000000000)
CONST4(expAbs, 0x7fffffffffffffff)

DATA  expBias<>+0(SB)/8, $0x000003ff000003ff
DATA  expBias<>+8(SB)/8, $0x000003ff000003ff
GLOBL expBias<>(SB), RODATA|NOPTR, $16

// smTail is three all-ones quadwords then four zero ones: the 32 bytes at
// offset 24-8r are the mask of an r-element tail (lanes 0…r-1 set).
DATA  smTail<>+0(SB)/8, $-1
DATA  smTail<>+8(SB)/8, $-1
DATA  smTail<>+16(SB)/8, $-1
DATA  smTail<>+24(SB)/8, $0
DATA  smTail<>+32(SB)/8, $0
DATA  smTail<>+40(SB)/8, $0
DATA  smTail<>+48(SB)/8, $0
GLOBL smTail<>(SB), RODATA|NOPTR, $56

// EXP4 sets Y1 to Exp of each lane of Y0, bit for bit, and clobbers Y2–Y7.
// It follows exp.go operation by operation, every VSUBPD and VDIVPD with
// the same operands in the same order (Go assembly lists sources last to
// first): k = int32(log2e·x ± 0.5) by truncation, hi = x − k·ln2Hi, lo =
// k·ln2Lo, r = hi − lo, t = r·r, the Horner chain c, y = 1 − ((lo −
// r·c/(2−c)) − hi), then y·2^⌊k/2⌋·2^(k−⌊k/2⌋), each power built from int32
// lanes with 128-bit integer instructions: (k' + 1023) << 20 is the high
// dword of 2^k', interleaved with a zero low dword. Every lane takes that
// path; the special cases are then blended over it, one mask per range
// check of Exp — |x| < 2⁻²⁸ gives 1+x, x < underflow +0, x > overflow +Inf
// and a NaN itself — and since the four ranges are disjoint their order
// does not matter.
#define EXP4 \
	VMULPD      expLog2e<>(SB), Y0, Y2; \
	VANDPD      expSign<>(SB), Y0, Y3; \
	VORPD       expHalf<>(SB), Y3, Y3; \
	VADDPD      Y3, Y2, Y2; \
	VCVTTPD2DQY Y2, X2; \
	VCVTDQ2PD   X2, Y3; \
	VMULPD      expLn2Hi<>(SB), Y3, Y4; \
	VSUBPD      Y4, Y0, Y4; \
	VMULPD      expLn2Lo<>(SB), Y3, Y5; \
	VSUBPD      Y5, Y4, Y3; \
	VMULPD      Y3, Y3, Y6; \
	VMULPD      expP5<>(SB), Y6, Y7; \
	VADDPD      expP4<>(SB), Y7, Y7; \
	VMULPD      Y7, Y6, Y7; \
	VADDPD      expP3<>(SB), Y7, Y7; \
	VMULPD      Y7, Y6, Y7; \
	VADDPD      expP2<>(SB), Y7, Y7; \
	VMULPD      Y7, Y6, Y7; \
	VADDPD      expP1<>(SB), Y7, Y7; \
	VMULPD      Y7, Y6, Y7; \
	VSUBPD      Y7, Y3, Y7; \
	VMULPD      Y7, Y3, Y1; \
	VMOVUPD     expTwo<>(SB), Y6; \
	VSUBPD      Y7, Y6, Y6; \
	VDIVPD      Y6, Y1, Y1; \
	VSUBPD      Y1, Y5, Y1; \
	VSUBPD      Y4, Y1, Y1; \
	VMOVUPD     expOne<>(SB), Y6; \
	VSUBPD      Y1, Y6, Y1; \
	VPSRAD      $1, X2, X3; \
	VPSUBD      X3, X2, X2; \
	VPADDD      expBias<>(SB), X3, X3; \
	VPADDD      expBias<>(SB), X2, X2; \
	VPSLLD      $20, X3, X3; \
	VPSLLD      $20, X2, X2; \
	VPXOR       X7, X7, X7; \
	VPUNPCKLDQ  X3, X7, X4; \
	VPUNPCKHDQ  X3, X7, X5; \
	VINSERTF128 $1, X5, Y4, Y4; \
	VMULPD      Y4, Y1, Y1; \
	VPUNPCKLDQ  X2, X7, X4; \
	VPUNPCKHDQ  X2, X7, X5; \
	VINSERTF128 $1, X5, Y4, Y4; \
	VMULPD      Y4, Y1, Y1; \
	VANDPD      expAbs<>(SB), Y0, Y2; \
	VCMPPD      $0x11, expNearZero<>(SB), Y2, Y2; \
	VADDPD      expOne<>(SB), Y0, Y3; \
	VBLENDVPD   Y2, Y3, Y1, Y1; \
	VCMPPD      $0x11, expUnderflow<>(SB), Y0, Y2; \
	VANDNPD     Y1, Y2, Y1; \
	VCMPPD      $0x1e, expOverflow<>(SB), Y0, Y2; \
	VBLENDVPD   Y2, expInf<>(SB), Y1, Y1; \
	VCMPPD      $3, Y0, Y0, Y2; \
	VBLENDVPD   Y2, Y0, Y1, Y1

// SUMLANES adds the four lanes of Y1 into the scalar sum X13 in ascending
// lane order, the sum as first source of every add.
#define SUMLANES \
	VADDSD       X1, X13, X13; \
	VPERMILPD    $1, X1, X2; \
	VADDSD       X2, X13, X13; \
	VEXTRACTF128 $1, Y1, X2; \
	VADDSD       X2, X13, X13; \
	VPERMILPD    $1, X2, X2; \
	VADDSD       X2, X13, X13

// func softmaxAVX(dst, src []float64)
//
// Register use: DI = &dst[0], SI = &src[0], CX = len, DX = tail length
// (len mod 4), R8 = full vectors; per pass R9 walks src, R11 walks dst and
// R10 counts vectors. Y15 is the tail mask, Y14 −Inf, Y8 the row max
// (broadcast once found), Y13 the sum. VMASKMOVPD reads and writes only the
// tail's lanes; the others load as +0, run through the arithmetic and are
// discarded.
TEXT ·softmaxAVX(SB), NOSPLIT, $0-48
	MOVQ  dst_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	MOVQ  src_len+32(FP), CX
	TESTQ CX, CX
	JEQ   smret
	MOVQ  CX, DX
	ANDQ  $3, DX
	MOVQ  CX, R8
	SHRQ  $2, R8
	MOVQ  DX, AX
	SHLQ  $3, AX
	NEGQ  AX
	LEAQ  smTail<>(SB), R9
	VMOVUPD 24(R9)(AX*1), Y15
	VMOVUPD expNegInf<>(SB), Y14

	// Pass 1: the row max, per lane, then across lanes. VMAXPD returns its
	// second source (the running max) unless the first (the element) is
	// greater, so a NaN element is passed over, as by the portable compare.
	// Across lanes the order cannot matter: no lane holds a NaN, and a
	// max of ±0 differs only in a sign that v − max never shows (x − ±0 is
	// x, and −0 − ±0 is ±0, whose Exp is 1 either way).
	VMOVAPD Y14, Y8
	MOVQ    SI, R9
	MOVQ    R8, R10
	TESTQ   R10, R10
	JEQ     smmaxtail

smmax4:
	VMOVUPD (R9), Y0
	VMAXPD  Y8, Y0, Y8
	ADDQ    $32, R9
	DECQ    R10
	JNZ     smmax4

smmaxtail:
	TESTQ        DX, DX
	JEQ          smmaxlanes
	VMASKMOVPD   (R9), Y15, Y0
	VBLENDVPD    Y15, Y0, Y14, Y0
	VMAXPD       Y8, Y0, Y8

smmaxlanes:
	VEXTRACTF128 $1, Y8, X0
	VMAXPD       X0, X8, X8
	VPERMILPD    $1, X8, X0
	VMAXSD       X0, X8, X8
	VMOVDDUP     X8, X8
	VINSERTF128  $1, X8, Y8, Y8

	// Pass 2: dst[i] = Exp(src[i] − max), summed in ascending i from +0.
	VXORPD X13, X13, X13
	MOVQ   SI, R9
	MOVQ   DI, R11
	MOVQ   R8, R10
	TESTQ  R10, R10
	JEQ    smexptail

smexp4:
	VMOVUPD (R9), Y0
	VSUBPD  Y8, Y0, Y0
	EXP4
	VMOVUPD Y1, (R11)
	SUMLANES
	ADDQ    $32, R9
	ADDQ    $32, R11
	DECQ    R10
	JNZ     smexp4

smexptail:
	TESTQ        DX, DX
	JEQ          smdiv
	VMASKMOVPD   (R9), Y15, Y0
	VSUBPD       Y8, Y0, Y0
	EXP4
	VMASKMOVPD   Y1, Y15, (R11)
	VADDSD       X1, X13, X13
	CMPQ         DX, $2
	JLT          smdiv
	VPERMILPD    $1, X1, X2
	VADDSD       X2, X13, X13
	CMPQ         DX, $3
	JLT          smdiv
	VEXTRACTF128 $1, Y1, X2
	VADDSD       X2, X13, X13

	// Pass 3: dst[i] /= sum.
smdiv:
	VMOVDDUP    X13, X13
	VINSERTF128 $1, X13, Y13, Y13
	MOVQ        DI, R11
	MOVQ        R8, R10
	TESTQ       R10, R10
	JEQ         smdivtail

smdiv4:
	VMOVUPD (R11), Y0
	VDIVPD  Y13, Y0, Y0
	VMOVUPD Y0, (R11)
	ADDQ    $32, R11
	DECQ    R10
	JNZ     smdiv4

smdivtail:
	TESTQ      DX, DX
	JEQ        smdone
	VMASKMOVPD (R11), Y15, Y0
	VDIVPD     Y13, Y0, Y0
	VMASKMOVPD Y0, Y15, (R11)

smdone:
	VZEROUPPER

smret:
	RET

// The AVX-512 tier: axpyRowsAVX, axpyNonzeroRowsAVX, outerRowsAVX and
// outerNonzeroRowsAVX with their panels of y in ZMM registers. The
// instructions are the 256-bit ones at twice the width — VBROADCASTSD,
// VMULPD, then VADDPD, never VFMADD — and each lane is still its own output
// element, so only how many outputs share a pass changes, never the order
// of any sum: the bits are the portable loops'.
//
// A panel is one to four, six or eight ZMM registers, 8 columns each, and
// the narrowest that covers the columns left runs, so a row of up to 64
// outputs takes one pass over the rows; wider rows take 64 columns a pass.
// A panel's last one to four registers run under the lane masks K1–K4: a
// masked-off lane is zeroed on load, never stored and cannot fault, so no
// panel needs a narrower tail.
//
// Only Z0–Z15 are used. VZEROUPPER at return clears their upper halves but
// not those of Z16–Z31, and a dirty register there slowed the 256-bit code
// that follows: in a profile of one round, everything but these kernels
// took about 13 % longer.

// func hasAVX512() bool
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID                // the highest basic leaf, into AX
	CMPL AX, $7
	JLT  noavx512
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x08000000, CX // OSXSAVE (bit 27): XGETBV may run
	JEQ  noavx512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x10000, BX    // AVX512F (leaf 7, EBX bit 16)
	JEQ  noavx512
	XORL CX, CX
	XGETBV               // XCR0 into DX:AX
	ANDL $0xE6, AX       // XMM, YMM, opmask, ZMM0–15 upper and ZMM16–31 state
	CMPL AX, $0xE6
	JNE  noavx512
	MOVB $1, ret+0(FP)
	RET

noavx512:
	MOVB $0, ret+0(FP)
	RET

// ZPANEL sets K1–K4 for the panel that covers the columns left in R12 and
// branches to it: p1–p4, one to four registers, every one masked, for up
// to 8, 16, 24 and 32 columns, or p6 for up to 48, the last two masked;
// with more columns left it falls through to the eight-register panel, the
// last four masked, which takes at most 64. The masked registers' columns,
// at most 32, are the low CL bits of AX, eight per register.
#define ZPANEL(p1, p2, p3, p4, p6) \
	MOVQ    R12, CX; \
	LEAQ    -32(R12), AX; \
	CMPQ    R12, $32; \
	CMOVQGT AX, CX; \
	MOVL    $32, AX; \
	CMPQ    CX, AX; \
	CMOVQGT AX, CX; \
	MOVQ    $-1, AX; \
	SHLQ    CX, AX; \
	NOTQ    AX; \
	KMOVW   AX, K1; \
	SHRQ    $8, AX; \
	KMOVW   AX, K2; \
	SHRQ    $8, AX; \
	KMOVW   AX, K3; \
	SHRQ    $8, AX; \
	KMOVW   AX, K4; \
	CMPQ    R12, $8; \
	JLE     p1; \
	CMPQ    R12, $16; \
	JLE     p2; \
	CMPQ    R12, $24; \
	JLE     p3; \
	CMPQ    R12, $32; \
	JLE     p4; \
	CMPQ    R12, $48; \
	JLE     p6

// LOADZ1–LOADZ4 load a one- to four-register panel of y at b into Z1–Z4
// under K1–K4; LOADZ6 and LOADZ8 load 32 columns unmasked into Z1–Z4 and
// the next 16 or 32 into Z5–Z6 or Z5–Z8 under K1–K2 or K1–K4. The STOREZ
// macros store the same registers under the same masks.
#define LOADZ1(b) \
	VMOVUPD.Z (b), K1, Z1

#define LOADZ2(b) \
	LOADZ1(b); \
	VMOVUPD.Z 64(b), K2, Z2

#define LOADZ3(b) \
	LOADZ2(b); \
	VMOVUPD.Z 128(b), K3, Z3

#define LOADZ4(b) \
	LOADZ3(b); \
	VMOVUPD.Z 192(b), K4, Z4

#define LOADZ6(b) \
	VMOVUPD   (b), Z1; \
	VMOVUPD   64(b), Z2; \
	VMOVUPD   128(b), Z3; \
	VMOVUPD   192(b), Z4; \
	VMOVUPD.Z 256(b), K1, Z5; \
	VMOVUPD.Z 320(b), K2, Z6

#define LOADZ8(b) \
	LOADZ6(b); \
	VMOVUPD.Z 384(b), K3, Z7; \
	VMOVUPD.Z 448(b), K4, Z8

#define STOREZ1(b) \
	VMOVUPD Z1, K1, (b)

#define STOREZ2(b) \
	STOREZ1(b); \
	VMOVUPD Z2, K2, 64(b)

#define STOREZ3(b) \
	STOREZ2(b); \
	VMOVUPD Z3, K3, 128(b)

#define STOREZ4(b) \
	STOREZ3(b); \
	VMOVUPD Z4, K4, 192(b)

#define STOREZ6(b) \
	VMOVUPD Z1, (b); \
	VMOVUPD Z2, 64(b); \
	VMOVUPD Z3, 128(b); \
	VMOVUPD Z4, 192(b); \
	VMOVUPD Z5, K1, 256(b); \
	VMOVUPD Z6, K2, 320(b)

#define STOREZ8(b) \
	STOREZ6(b); \
	VMOVUPD Z7, K3, 384(b); \
	VMOVUPD Z8, K4, 448(b)

// AXPYZ adds one 8-column product of the broadcast Z0 and memory m into
// acc through t; AXPYZK does it under the lane mask k, zeroing t's masked
// lanes without reading their memory.
#define AXPYZ(m, acc, t) \
	VMULPD m, Z0, t; \
	VADDPD t, acc, acc

#define AXPYZK(m, k, acc, t) \
	VMULPD.Z m, Z0, k, t; \
	VADDPD   t, acc, acc

// AXPYROW1–AXPYROW4, AXPYROW6 and AXPYROW8 add the broadcast Z0 times the
// row of W at b into the panel of the same size.
#define AXPYROW1(b) \
	AXPYZK((b), K1, Z1, Z9)

#define AXPYROW2(b) \
	AXPYROW1(b); \
	AXPYZK(64(b), K2, Z2, Z10)

#define AXPYROW3(b) \
	AXPYROW2(b); \
	AXPYZK(128(b), K3, Z3, Z11)

#define AXPYROW4(b) \
	AXPYROW3(b); \
	AXPYZK(192(b), K4, Z4, Z12)

#define AXPYROW6(b) \
	AXPYZ((b), Z1, Z9); \
	AXPYZ(64(b), Z2, Z10); \
	AXPYZ(128(b), Z3, Z11); \
	AXPYZ(192(b), Z4, Z12); \
	AXPYZK(256(b), K1, Z5, Z13); \
	AXPYZK(320(b), K2, Z6, Z14)

#define AXPYROW8(b) \
	AXPYROW6(b); \
	AXPYZK(384(b), K3, Z7, Z15); \
	AXPYZK(448(b), K4, Z8, Z9)

// OUTERZ adds one 8-column product of the broadcast Z0 and the held y into
// memory m through t; OUTERZK does it under the lane mask k, so a masked
// lane of m is neither read nor written.
#define OUTERZ(m, y, t) \
	VMULPD  y, Z0, t; \
	VADDPD  m, t, t; \
	VMOVUPD t, m

#define OUTERZK(m, k, y, t) \
	VMULPD   y, Z0, t; \
	VADDPD.Z m, t, k, t; \
	VMOVUPD  t, k, m

// OUTERROW1–OUTERROW4, OUTERROW6 and OUTERROW8 add the broadcast Z0 times
// the held panel of y into the row of G at b.
#define OUTERROW1(b) \
	OUTERZK((b), K1, Z1, Z9)

#define OUTERROW2(b) \
	OUTERROW1(b); \
	OUTERZK(64(b), K2, Z2, Z10)

#define OUTERROW3(b) \
	OUTERROW2(b); \
	OUTERZK(128(b), K3, Z3, Z11)

#define OUTERROW4(b) \
	OUTERROW3(b); \
	OUTERZK(192(b), K4, Z4, Z12)

#define OUTERROW6(b) \
	OUTERZ((b), Z1, Z9); \
	OUTERZ(64(b), Z2, Z10); \
	OUTERZ(128(b), Z3, Z11); \
	OUTERZ(192(b), Z4, Z12); \
	OUTERZK(256(b), K1, Z5, Z13); \
	OUTERZK(320(b), K2, Z6, Z14)

#define OUTERROW8(b) \
	OUTERROW6(b); \
	OUTERZK(384(b), K3, Z7, Z15); \
	OUTERZK(448(b), K4, Z8, Z9)

// DENSEROWS is one panel's pass over every row, in ascending k, for the
// dense kernels: R9 = &x[k], R10 = the panel's columns of row k, R11 =
// rows left.
#define DENSEROWS(lbl, row) \
	MOVQ    SI, R9; \
	MOVQ    DX, R10; \
	MOVQ    BX, R11; \
lbl: \
	VBROADCASTSD (R9), Z0; \
	row(R10); \
	ADDQ         $8, R9; \
	ADDQ         R8, R10; \
	DECQ         R11; \
	JNZ          lbl

// func axpyRowsAVX512(y, x, w []float64, stride int)
//
// Register use: DI = &y[j], R12 = columns left, SI = &x[0], BX = len(x),
// DX = &w[j] (row 0 of the current panel), R8 = stride in bytes; per panel
// as DENSEROWS.
TEXT ·axpyRowsAVX512(SB), NOSPLIT, $0-80
	MOVQ  y_base+0(FP), DI
	MOVQ  y_len+8(FP), R12
	MOVQ  x_base+24(FP), SI
	MOVQ  x_len+32(FP), BX
	MOVQ  w_base+48(FP), DX
	MOVQ  stride+72(FP), R8
	SHLQ  $3, R8
	TESTQ BX, BX
	JEQ   zrdone
	TESTQ R12, R12
	JEQ   zrdone

zrpanel:
	ZPANEL(zrp1, zrp2, zrp3, zrp4, zrp6)
	LOADZ8(DI)
	DENSEROWS(zrrows8, AXPYROW8)
	STOREZ8(DI)
	ADDQ $512, DI
	ADDQ $512, DX
	SUBQ $64, R12
	JGT  zrpanel
	JMP  zrdone

zrp6:
	LOADZ6(DI)
	DENSEROWS(zrrows6, AXPYROW6)
	STOREZ6(DI)
	JMP zrdone

zrp4:
	LOADZ4(DI)
	DENSEROWS(zrrows4, AXPYROW4)
	STOREZ4(DI)
	JMP zrdone

zrp3:
	LOADZ3(DI)
	DENSEROWS(zrrows3, AXPYROW3)
	STOREZ3(DI)
	JMP zrdone

zrp2:
	LOADZ2(DI)
	DENSEROWS(zrrows2, AXPYROW2)
	STOREZ2(DI)
	JMP zrdone

zrp1:
	LOADZ1(DI)
	DENSEROWS(zrrows1, AXPYROW1)
	STOREZ1(DI)

zrdone:
	VZEROUPPER
	RET

// func outerRowsAVX512(g, x, y []float64, stride int)
//
// axpyRowsAVX512's panels turned around, as outerRowsAVX is axpyRowsAVX's:
// the panel's slice of y stays in registers, and every row of G in the
// panel takes one load, one add and one store per register.
//
// Register use: DI = &y[j], R12 = columns left, SI = &x[0], BX = len(x),
// DX = &g[j] (row 0 of the current panel), R8 = stride in bytes; per panel
// as DENSEROWS.
TEXT ·outerRowsAVX512(SB), NOSPLIT, $0-80
	MOVQ  g_base+0(FP), DX
	MOVQ  x_base+24(FP), SI
	MOVQ  x_len+32(FP), BX
	MOVQ  y_base+48(FP), DI
	MOVQ  y_len+56(FP), R12
	MOVQ  stride+72(FP), R8
	SHLQ  $3, R8
	TESTQ BX, BX
	JEQ   zodone
	TESTQ R12, R12
	JEQ   zodone

zopanel:
	ZPANEL(zop1, zop2, zop3, zop4, zop6)
	LOADZ8(DI)
	DENSEROWS(zorows8, OUTERROW8)
	ADDQ $512, DI
	ADDQ $512, DX
	SUBQ $64, R12
	JGT  zopanel
	JMP  zodone

zop6:
	LOADZ6(DI)
	DENSEROWS(zorows6, OUTERROW6)
	JMP zodone

zop4:
	LOADZ4(DI)
	DENSEROWS(zorows4, OUTERROW4)
	JMP zodone

zop3:
	LOADZ3(DI)
	DENSEROWS(zorows3, OUTERROW3)
	JMP zodone

zop2:
	LOADZ2(DI)
	DENSEROWS(zorows2, OUTERROW2)
	JMP zodone

zop1:
	LOADZ1(DI)
	DENSEROWS(zorows1, OUTERROW1)

zodone:
	VZEROUPPER
	RET

// ZCHUNK builds the row mask of the next chunk of up to 64 rows of x, as
// axpyNonzeroRowsAVX does but eight rows per compare: VCMPPD predicate 4
// (NEQ_UQ: x[k] != 0, true for NaN) into K5, then KMOVW; the chunk's last
// 1–7 rows load under the lane mask K6 with the rest zeroed, and a zeroed
// lane compares equal to zero. It jumps to done when no rows are left and
// to next when the chunk has no set bit.
//
// Register use: SI = &x[chunk start], BX = rows after the chunk; it leaves
// R10 = the chunk's rows and R11 = its mask, with DI = &x[k] while
// masking and Z9 = +0.
#define ZCHUNK(mask8, masked, next, done) \
	TESTQ     BX, BX; \
	JEQ       done; \
	VXORPD    X9, X9, X9; \
	MOVQ      $64, R10; \
	CMPQ      BX, R10; \
	CMOVQLT   BX, R10; \
	SUBQ      R10, BX; \
	MOVQ      R10, CX; \
	ANDQ      $7, CX; \
	MOVL      $1, AX; \
	SHLL      CX, AX; \
	DECL      AX; \
	KMOVW     AX, K6; \
	XORQ      R11, R11; \
	XORQ      CX, CX; \
	MOVQ      SI, DI; \
mask8: \
	LEAQ      8(CX), AX; \
	CMPQ      AX, R10; \
	JGT       masked; \
	VMOVUPD   (DI), Z0; \
	VCMPPD    $4, Z9, Z0, K5; \
	KMOVW     K5, AX; \
	SHLQ      CX, AX; \
	ORQ       AX, R11; \
	ADDQ      $64, DI; \
	ADDQ      $8, CX; \
	JMP       mask8; \
masked: \
	VMOVUPD.Z (DI), K6, Z0; \
	VCMPPD    $4, Z9, Z0, K5; \
	KMOVW     K5, AX; \
	SHLQ      CX, AX; \
	ORQ       AX, R11; \
	TESTQ     R11, R11; \
	JEQ       next

// ZNEXT moves SI and R9 — x and the matrix — past the chunk of R10 rows.
#define ZNEXT \
	LEAQ  (SI)(R10*8), SI; \
	IMULQ R8, R10; \
	ADDQ  R10, R9

// SPARSEROWS is one panel's pass over the set bits of the chunk mask R11,
// lowest first: AX = the visited row, then its address in the matrix, and
// R13 = the bits not yet visited; DX = the panel's column in the chunk's
// row 0.
#define SPARSEROWS(lbl, row) \
	MOVQ    R11, R13; \
	PCALIGN $32; \
lbl: \
	BSFQ         R13, AX; \
	VBROADCASTSD (SI)(AX*8), Z0; \
	IMULQ        R8, AX; \
	ADDQ         DX, AX; \
	row(AX); \
	LEAQ         -1(R13), AX; \
	ANDQ         AX, R13; \
	JNZ          lbl

// func axpyNonzeroRowsAVX512(y, x, w []float64, stride int)
//
// axpyNonzeroRowsAVX with axpyRowsAVX512's panels: per chunk of up to 64
// rows, ZCHUNK's mask, then each panel of y visits its set bits lowest
// first, so the rows are added in ascending k and a zero row never is.
//
// Register use: as ZCHUNK and SPARSEROWS, with R8 = stride in bytes and R9
// = &w[chunk start row]; per panel DI = &y[j], R12 = columns left and DX =
// R9 + 8·j.
TEXT ·axpyNonzeroRowsAVX512(SB), NOSPLIT, $0-80
	MOVQ   x_base+24(FP), SI
	MOVQ   x_len+32(FP), BX
	MOVQ   w_base+48(FP), R9
	MOVQ   stride+72(FP), R8
	SHLQ   $3, R8

zachunk:
	ZCHUNK(zamask8, zamasked, zanext, zadone)
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), R12
	MOVQ R9, DX

zapanel:
	ZPANEL(zap1, zap2, zap3, zap4, zap6)
	LOADZ8(DI)
	SPARSEROWS(zarows8, AXPYROW8)
	STOREZ8(DI)
	ADDQ $512, DI
	ADDQ $512, DX
	SUBQ $64, R12
	JGT  zapanel
	JMP  zanext

zap6:
	LOADZ6(DI)
	SPARSEROWS(zarows6, AXPYROW6)
	STOREZ6(DI)
	JMP zanext

zap4:
	LOADZ4(DI)
	SPARSEROWS(zarows4, AXPYROW4)
	STOREZ4(DI)
	JMP zanext

zap3:
	LOADZ3(DI)
	SPARSEROWS(zarows3, AXPYROW3)
	STOREZ3(DI)
	JMP zanext

zap2:
	LOADZ2(DI)
	SPARSEROWS(zarows2, AXPYROW2)
	STOREZ2(DI)
	JMP zanext

zap1:
	LOADZ1(DI)
	SPARSEROWS(zarows1, AXPYROW1)
	STOREZ1(DI)

zanext:
	ZNEXT
	JMP zachunk

zadone:
	VZEROUPPER
	RET

// func outerNonzeroRowsAVX512(g, x, y []float64, stride int)
//
// outerRowsAVX512's panels over the set bits of axpyNonzeroRowsAVX512's
// chunk mask: every nonzero row of G in the panel takes one load, one add
// and one store per register, and a zero row is never touched.
//
// Register use: as axpyNonzeroRowsAVX512, with R9 = &g[chunk start row].
TEXT ·outerNonzeroRowsAVX512(SB), NOSPLIT, $0-80
	MOVQ   g_base+0(FP), R9
	MOVQ   x_base+24(FP), SI
	MOVQ   x_len+32(FP), BX
	MOVQ   stride+72(FP), R8
	SHLQ   $3, R8

zbchunk:
	ZCHUNK(zbmask8, zbmasked, zbnext, zbdone)
	MOVQ y_base+48(FP), DI
	MOVQ y_len+56(FP), R12
	MOVQ R9, DX

zbpanel:
	ZPANEL(zbp1, zbp2, zbp3, zbp4, zbp6)
	LOADZ8(DI)
	SPARSEROWS(zbrows8, OUTERROW8)
	ADDQ $512, DI
	ADDQ $512, DX
	SUBQ $64, R12
	JGT  zbpanel
	JMP  zbnext

zbp6:
	LOADZ6(DI)
	SPARSEROWS(zbrows6, OUTERROW6)
	JMP zbnext

zbp4:
	LOADZ4(DI)
	SPARSEROWS(zbrows4, OUTERROW4)
	JMP zbnext

zbp3:
	LOADZ3(DI)
	SPARSEROWS(zbrows3, OUTERROW3)
	JMP zbnext

zbp2:
	LOADZ2(DI)
	SPARSEROWS(zbrows2, OUTERROW2)
	JMP zbnext

zbp1:
	LOADZ1(DI)
	SPARSEROWS(zbrows1, OUTERROW1)

zbnext:
	ZNEXT
	JMP zbchunk

zbdone:
	VZEROUPPER
	RET
