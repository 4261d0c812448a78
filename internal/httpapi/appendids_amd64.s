#include "textflag.h"

// The multiply-shift constants of the digit split. Each quotient is
// exact over the range it is used on: id < 2³² at 10⁸, values below
// 10⁸ at 10⁴, below 10⁴ at 100 and below 100 at 10.
DATA idsDiv1e8<>+0(SB)/8, $1441151881 // ⌈2⁵⁷/10⁸⌉
GLOBL idsDiv1e8<>(SB), RODATA|NOPTR, $8
DATA ids1e8<>+0(SB)/8, $100000000
GLOBL ids1e8<>(SB), RODATA|NOPTR, $8
DATA idsMax7<>+0(SB)/8, $9999999
GLOBL idsMax7<>(SB), RODATA|NOPTR, $8
DATA idsDiv1e4<>+0(SB)/8, $109951163 // ⌈2⁴⁰/10⁴⌉
GLOBL idsDiv1e4<>(SB), RODATA|NOPTR, $8
DATA idsPack1e4<>+0(SB)/8, $4294957296 // 2³² − 10⁴
GLOBL idsPack1e4<>(SB), RODATA|NOPTR, $8
DATA idsDiv100<>+0(SB)/2, $5243 // ⌈2¹⁹/100⌉, a product's high half then shifted by 3
GLOBL idsDiv100<>(SB), RODATA|NOPTR, $2
DATA ids100<>+0(SB)/2, $100
GLOBL ids100<>(SB), RODATA|NOPTR, $2
DATA idsDiv10<>+0(SB)/2, $6554 // ⌈2¹⁶/10⌉
GLOBL idsDiv10<>(SB), RODATA|NOPTR, $2
DATA idsPack10<>+0(SB)/2, $246 // 2⁸ − 10
GLOBL idsPack10<>(SB), RODATA|NOPTR, $2
DATA idsASCII<>+0(SB)/1, $0x30
GLOBL idsASCII<>(SB), RODATA|NOPTR, $1

// idsComma makes a lane of digits ASCII, and its top digit, always
// zero below 10⁷, a comma.
DATA idsComma<>+0(SB)/8, $0x303030303030302c
GLOBL idsComma<>(SB), RODATA|NOPTR, $8

// idsReverse reverses the bytes of each 64-bit lane: the split leaves
// the least significant digit first.
DATA idsReverse<>+0(SB)/8, $0x0001020304050607
DATA idsReverse<>+8(SB)/8, $0x08090a0b0c0d0e0f
DATA idsReverse<>+16(SB)/8, $0x0001020304050607
DATA idsReverse<>+24(SB)/8, $0x08090a0b0c0d0e0f
GLOBL idsReverse<>(SB), RODATA|NOPTR, $32

// idsTop puts a lane's two top digits tens first and zeroes the rest.
DATA idsTop<>+0(SB)/8, $0x8080808080800001
DATA idsTop<>+8(SB)/8, $0x8080808080800809
DATA idsTop<>+16(SB)/8, $0x8080808080800001
DATA idsTop<>+24(SB)/8, $0x8080808080800809
GLOBL idsTop<>(SB), RODATA|NOPTR, $32

// DIGITS turns the values below 10⁸ in the 64-bit lanes of Y0 into
// their eight digits, most significant first, one byte each (not yet
// ASCII). It splits each value at 10⁴, each half at 100 and each pair
// at 10, by multiply and shift, least significant part first; the
// byte shuffle then reverses each lane.
#define DIGITS \
	VPMULUDQ Y10, Y0, Y2; \
	VPSRLQ   $40, Y2, Y2; \
	VPMULUDQ Y11, Y2, Y2; \
	VPADDQ   Y2, Y0, Y0; \
	VPMULHUW Y12, Y0, Y2; \
	VPSRLW   $3, Y2, Y2; \
	VPMULLW  Y13, Y2, Y3; \
	VPSUBW   Y3, Y0, Y0; \
	VPSLLD   $16, Y2, Y2; \
	VPOR     Y2, Y0, Y0; \
	VPMULHUW Y14, Y0, Y2; \
	VPMULLW  Y15, Y2, Y2; \
	VPADDW   Y2, Y0, Y0; \
	VPSHUFB  Y7, Y0, Y0

// LANES moves the four 64-bit lanes of Y0 to R8–R11.
#define LANES \
	VMOVQ        X0, R8; \
	VPEXTRQ      $1, X0, R9; \
	VEXTRACTI128 $1, Y0, X0; \
	VMOVQ        X0, R10; \
	VPEXTRQ      $1, X0, R11

// ID stores the eight digits in w with the leading zeros stripped that
// the low byte of AX counts (a bit is set where a digit is not zero,
// and bit 7 always, so a lane of eight zeros keeps one), then a comma;
// it moves DI past the comma and AX to the next lane's byte. The
// 8-byte store runs past the digits it means; the comma and the next
// store overwrite that.
#define ID(w) \
	BSFL AX, R13; \
	SHRL $8, AX; \
	LEAL (R13*8), CX; \
	SHRQ CX, w; \
	MOVQ w, (DI); \
	NEGQ R13; \
	MOVB $0x2c, 8(DI)(R13*1); \
	LEAQ 9(DI)(R13*1), DI

// TOP stores the 0–2 digits of id/10⁸ in w (tens first), stripped of
// the leading zeros that the low byte of DX counts (bits 0 and 1 as in
// AX, and bit 2 always), and moves DI past them and DX to the next
// lane's byte.
#define TOP(w) \
	BSFL DX, R13; \
	SHRL $8, DX; \
	LEAL (R13*8), CX; \
	SHRQ CX, w; \
	MOVW w, (DI); \
	NEGQ R13; \
	LEAQ 2(DI)(R13*1), DI

// func writeIDsAVX2(dst *byte, ids []uint32) (n int)
//
// Four ids a step, each followed by a comma, from dst on; n is the
// bytes written. len(ids) is a multiple of four, and dst has room for
// 11·len(ids) bytes: no store reaches past a group's 44. A group whose
// ids are all below 10⁷ is compact: each lane's top digit is zero, so
// one OR makes it the id's comma, and one byte shuffle (a pair of
// idPairs entries) packs each half's two ids with their leading zeros
// stripped; each half is one 16-byte store, ending at most 32 bytes
// past the group's start. Any other group is wide: it splits its ids
// at 10⁸ first and writes each id with an 8-byte store and a comma
// store; an id of 9 or 10 digits writes its 1–2 top digits and all
// eight of the rest.
TEXT ·writeIDsAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ ids_base+8(FP), SI
	MOVQ ids_len+16(FP), BX
	SHRQ $2, BX
	JZ   ret

	VPBROADCASTQ idsDiv1e4<>(SB), Y10
	VPBROADCASTQ idsPack1e4<>(SB), Y11
	VPBROADCASTW idsDiv100<>(SB), Y12
	VPBROADCASTW ids100<>(SB), Y13
	VPBROADCASTW idsDiv10<>(SB), Y14
	VPBROADCASTW idsPack10<>(SB), Y15
	VPBROADCASTQ idsMax7<>(SB), Y9
	VPBROADCASTQ idsComma<>(SB), Y8
	LEAQ         ·idPairs(SB), R14
	VMOVDQU      idsReverse<>(SB), Y7
	VPBROADCASTB idsASCII<>(SB), Y6
	VPXOR        Y5, Y5, Y5
	PCALIGN      $32 // the loop's place in a cache line does not follow the link

loop:
	VPMOVZXDQ    (SI), Y0   // four ids, one per 64-bit lane
	VPCMPGTQ     Y9, Y0, Y1 // ids of 8 to 10 digits
	VPTEST       Y1, Y1
	JNZ          wide
	DIGITS
	VPCMPEQB     Y5, Y0, Y3
	VPMOVMSKB    Y3, AX
	NOTL         AX
	ORL          $0x80808080, AX
	VPOR         Y8, Y0, Y0 // ASCII digits, a comma in each top byte
	BSFL         AX, R8     // lz0–lz3: each lane's leading zero digits, 1–7
	SHRL         $8, AX
	BSFL         AX, R9
	SHRL         $8, AX
	BSFL         AX, R10
	SHRL         $8, AX
	BSFL         AX, R11
	LEAQ         (R9)(R8*8), CX
	SHLQ         $4, CX
	VMOVDQU      (R14)(CX*1), X1 // idPairs[lz0·8 + lz1]
	LEAQ         (R11)(R10*8), DX
	SHLQ         $4, DX
	VINSERTI128  $1, (R14)(DX*1), Y1, Y1 // idPairs[lz2·8 + lz3]
	VPSHUFB      Y1, Y0, Y0
	VMOVDQU      X0, (DI) // the first two ids and their commas
	ADDQ         R9, R8
	SUBQ         R8, DI
	VEXTRACTI128 $1, Y0, 18(DI) // the last two, from 18 − lz0 − lz1 on
	ADDQ         R11, R10
	SUBQ         R10, DI
	ADDQ         $36, DI

next:
	ADDQ $16, SI
	DECQ BX
	JNZ  loop

ret:
	VZEROUPPER
	SUBQ dst+0(FP), DI
	MOVQ DI, n+32(FP)
	RET

wide:
	VPBROADCASTQ idsDiv1e8<>(SB), Y1
	VPMULUDQ     Y1, Y0, Y1
	VPSRLQ       $57, Y1, Y1      // hi = id / 10⁸
	VPBROADCASTQ ids1e8<>(SB), Y2
	VPMULUDQ     Y2, Y1, Y2
	VPSUBQ       Y2, Y0, Y0       // id % 10⁸
	DIGITS
	VPCMPEQB     Y5, Y0, Y3
	VPCMPEQQ     Y5, Y1, Y2       // lanes below 10⁸
	VPAND        Y2, Y3, Y3       // an id of 9 or 10 digits strips no zero
	VPMOVMSKB    Y3, AX
	NOTL         AX
	ORL          $0x80808080, AX
	VPOR         Y6, Y0, Y0
	VPMULHUW     Y14, Y1, Y2
	VPMULLW      Y15, Y2, Y2
	VPADDW       Y2, Y1, Y1
	VPSHUFB      idsTop<>(SB), Y1, Y1
	VPCMPEQB     Y5, Y1, Y2
	VPMOVMSKB    Y2, DX
	NOTL         DX
	ORL          $0x04040404, DX
	VPOR         Y6, Y1, Y1
	LANES
	VMOVQ        X1, R12
	TOP(R12)
	ID(R8)
	VPEXTRQ      $1, X1, R12
	TOP(R12)
	ID(R9)
	VEXTRACTI128 $1, Y1, X1
	VMOVQ        X1, R12
	TOP(R12)
	ID(R10)
	VPEXTRQ      $1, X1, R12
	TOP(R12)
	ID(R11)
	JMP          next
