#include "textflag.h"

// func axpy64Kern4(c, b *float64, vecs int, a float64)
//
// c[j] += a·b[j] over vecs 4-double groups. Each lane takes one VMULPD
// and one VADDPD — never FMA — so it rounds exactly like the scalar
// statement.
TEXT ·axpy64Kern4(SB), NOSPLIT, $0-32
	MOVQ         c+0(FP), DI
	MOVQ         b+8(FP), SI
	MOVQ         vecs+16(FP), CX
	VBROADCASTSD a+24(FP), Y0
	TESTQ        CX, CX
	JZ           axpydone

axpyloop:
	VMULPD  (SI), Y0, Y1       // a·b
	VADDPD  (DI), Y1, Y1       // + c
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axpyloop

axpydone:
	VZEROUPPER
	RET

// func axpyPair64Kern4(c, b0, b1 *float64, vecs int, a0, a1 float64)
//
// c[j] += a0·b0[j] + a1·b1[j] over vecs 4-double groups: the two
// products, their sum, then the sum into c, each a separate rounded
// instruction as in the scalar statement.
TEXT ·axpyPair64Kern4(SB), NOSPLIT, $0-48
	MOVQ         c+0(FP), DI
	MOVQ         b0+8(FP), SI
	MOVQ         b1+16(FP), DX
	MOVQ         vecs+24(FP), CX
	VBROADCASTSD a0+32(FP), Y0
	VBROADCASTSD a1+40(FP), Y1
	TESTQ        CX, CX
	JZ           pairdone

pairloop:
	VMULPD  (SI), Y0, Y2       // a0·b0
	VMULPD  (DX), Y1, Y3       // a1·b1
	VADDPD  Y3, Y2, Y2         // a0·b0 + a1·b1
	VADDPD  (DI), Y2, Y2       // + c
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     pairloop

pairdone:
	VZEROUPPER
	RET

// func dotT64Kern4x8(b0, b1, b2, b3, a *float64, aStride, k int, tile *float64)
//
// Four rows b_r against eight outputs: eight 256-bit accumulators (four
// rows × two 4-double vectors), one line of a (two loads) and four
// scalar broadcasts per step l. Every tile element is one lane's chain
// of VMULPD and VADDPD from zero in ascending l; there is no horizontal
// reduction.
TEXT ·dotT64Kern4x8(SB), NOSPLIT, $0-64
	MOVQ b0+0(FP), R8
	MOVQ b1+8(FP), R9
	MOVQ b2+16(FP), R10
	MOVQ b3+24(FP), R11
	MOVQ a+32(FP), SI
	MOVQ aStride+40(FP), BX
	SHLQ $3, BX                // a's row stride in bytes
	MOVQ k+48(FP), CX
	MOVQ tile+56(FP), DI

	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	TESTQ CX, CX
	JZ    dotdone

dotloop:
	VMOVUPD (SI), Y0           // a[l, 0:4]
	VMOVUPD 32(SI), Y1         // a[l, 4:8]

	VBROADCASTSD (R8), Y2
	VMULPD       Y0, Y2, Y3
	VADDPD       Y3, Y4, Y4    // row 0
	VMULPD       Y1, Y2, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (R9), Y2
	VMULPD       Y0, Y2, Y3
	VADDPD       Y3, Y6, Y6    // row 1
	VMULPD       Y1, Y2, Y12
	VADDPD       Y12, Y7, Y7
	VBROADCASTSD (R10), Y2
	VMULPD       Y0, Y2, Y3
	VADDPD       Y3, Y8, Y8    // row 2
	VMULPD       Y1, Y2, Y12
	VADDPD       Y12, Y9, Y9
	VBROADCASTSD (R11), Y2
	VMULPD       Y0, Y2, Y3
	VADDPD       Y3, Y10, Y10  // row 3
	VMULPD       Y1, Y2, Y12
	VADDPD       Y12, Y11, Y11

	ADDQ BX, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNZ  dotloop

dotdone:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	VMOVUPD Y8, 128(DI)
	VMOVUPD Y9, 160(DI)
	VMOVUPD Y10, 192(DI)
	VMOVUPD Y11, 224(DI)
	VZEROUPPER
	RET
