#include "textflag.h"

// AVX2 kernels for the Block classifications. Each reads the 64-byte
// block as two 32-byte halves (Y0 = bytes 0-31, Y1 = bytes 32-63),
// compares every lane against a broadcast pattern, and gathers the lane
// flags with VPMOVMSKB into one 64-bit mask, bit i = byte i.
//
// Only VEX-encoded instructions appear here: mixing in a legacy-SSE
// instruction while the upper YMM halves are dirty costs a state
// transition on every call. Every kernel ends with VZEROUPPER for the
// same reason, and none touches X15, which the Go ABI keeps zero.

// Broadcast sources for the fixed classifications: the string pipeline's
// quote and backslash, the six structural metacharacters, and 0x21, the
// first byte above JSON whitespace.
DATA meta<>+0(SB)/1, $0x22
DATA meta<>+1(SB)/1, $0x5c
DATA meta<>+2(SB)/1, $0x7b
DATA meta<>+3(SB)/1, $0x7d
DATA meta<>+4(SB)/1, $0x5b
DATA meta<>+5(SB)/1, $0x5d
DATA meta<>+6(SB)/1, $0x3a
DATA meta<>+7(SB)/1, $0x2c
DATA meta<>+8(SB)/1, $0x21
GLOBL meta<>(SB), RODATA|NOPTR, $9

// LOADBLK loads the block at blk into Y0 and Y1.
#define LOADBLK(blk) \
	VMOVDQU 0(blk), Y0; \
	VMOVDQU 32(blk), Y1

// GATHER turns the lane flags of the two halves into the 64-bit mask dst.
#define GATHER(lo, hi, dst, tmp) \
	VPMOVMSKB lo, dst; \
	VPMOVMSKB hi, tmp; \
	SHLQ      $32, tmp; \
	ORQ       tmp, dst

// EQ64 sets dst to the mask of block bytes equal to the pattern in pat.
#define EQ64(pat, t0, t1, dst, tmp) \
	VPCMPEQB pat, Y0, t0; \
	VPCMPEQB pat, Y1, t1; \
	GATHER(t0, t1, dst, tmp)

// LT64 sets dst to the mask of block bytes unsigned-less than the pattern
// in pat: x >= c exactly when max(x, c) == x, so the mask is the
// complement of that equality.
#define LT64(pat, t0, t1, dst, tmp) \
	VPMAXUB  pat, Y0, t0; \
	VPMAXUB  pat, Y1, t1; \
	VPCMPEQB Y0, t0, t0; \
	VPCMPEQB Y1, t1, t1; \
	GATHER(t0, t1, dst, tmp); \
	NOTQ     dst

// func loadAVX2(blk *Block, p *[WordSize]byte)
TEXT ·loadAVX2(SB), NOSPLIT, $0-16
	MOVQ    p+8(FP), SI
	MOVQ    blk+0(FP), DI
	LOADBLK(SI)
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VZEROUPPER
	RET

// func eqMaskAVX2(blk *Block, c byte) uint64
TEXT ·eqMaskAVX2(SB), NOSPLIT, $0-24
	MOVQ         blk+0(FP), SI
	LOADBLK(SI)
	VPBROADCASTB c+8(FP), Y2
	EQ64(Y2, Y3, Y4, AX, BX)
	MOVQ         AX, ret+16(FP)
	VZEROUPPER
	RET

// func ltMaskAVX2(blk *Block, c byte) uint64
TEXT ·ltMaskAVX2(SB), NOSPLIT, $0-24
	MOVQ         blk+0(FP), SI
	LOADBLK(SI)
	VPBROADCASTB c+8(FP), Y2
	LT64(Y2, Y3, Y4, AX, BX)
	MOVQ         AX, ret+16(FP)
	VZEROUPPER
	RET

// func eqMask2AVX2(blk *Block, a, b byte) (ma, mb uint64)
TEXT ·eqMask2AVX2(SB), NOSPLIT, $0-32
	MOVQ         blk+0(FP), SI
	LOADBLK(SI)
	VPBROADCASTB a+8(FP), Y2
	VPBROADCASTB b+9(FP), Y3
	EQ64(Y2, Y4, Y5, AX, BX)
	EQ64(Y3, Y6, Y7, CX, DX)
	MOVQ         AX, ma+16(FP)
	MOVQ         CX, mb+24(FP)
	VZEROUPPER
	RET

// func eqMask3OrAVX2(blk *Block, a, b, c byte) uint64
TEXT ·eqMask3OrAVX2(SB), NOSPLIT, $0-24
	MOVQ         blk+0(FP), SI
	LOADBLK(SI)
	VPBROADCASTB a+8(FP), Y2
	VPBROADCASTB b+9(FP), Y3
	VPBROADCASTB c+10(FP), Y4
	VPCMPEQB     Y2, Y0, Y5
	VPCMPEQB     Y3, Y0, Y6
	VPOR         Y6, Y5, Y5
	VPCMPEQB     Y4, Y0, Y6
	VPOR         Y6, Y5, Y5
	VPCMPEQB     Y2, Y1, Y7
	VPCMPEQB     Y3, Y1, Y8
	VPOR         Y8, Y7, Y7
	VPCMPEQB     Y4, Y1, Y8
	VPOR         Y8, Y7, Y7
	GATHER(Y5, Y7, AX, BX)
	MOVQ         AX, ret+16(FP)
	VZEROUPPER
	RET

// func quoteAndBackslashMasksAVX2(blk *Block) (quotes, backslash uint64)
TEXT ·quoteAndBackslashMasksAVX2(SB), NOSPLIT, $0-24
	MOVQ         blk+0(FP), SI
	LOADBLK(SI)
	VPBROADCASTB meta<>+0(SB), Y2
	VPBROADCASTB meta<>+1(SB), Y3
	EQ64(Y2, Y4, Y5, AX, BX)
	EQ64(Y3, Y6, Y7, CX, DX)
	MOVQ         AX, quotes+8(FP)
	MOVQ         CX, backslash+16(FP)
	VZEROUPPER
	RET

// func classifyStructuralAVX2(blk *Block) (lbrace, rbrace, lbracket, rbracket, colon, comma, ws uint64)
TEXT ·classifyStructuralAVX2(SB), NOSPLIT, $0-64
	MOVQ         blk+0(FP), SI
	LOADBLK(SI)
	VPBROADCASTB meta<>+2(SB), Y2
	VPBROADCASTB meta<>+3(SB), Y3
	VPBROADCASTB meta<>+4(SB), Y4
	VPBROADCASTB meta<>+5(SB), Y5
	VPBROADCASTB meta<>+6(SB), Y6
	VPBROADCASTB meta<>+7(SB), Y7
	VPBROADCASTB meta<>+8(SB), Y8
	EQ64(Y2, Y9, Y10, AX, DX)
	MOVQ         AX, lbrace+8(FP)
	EQ64(Y3, Y9, Y10, AX, DX)
	MOVQ         AX, rbrace+16(FP)
	EQ64(Y4, Y9, Y10, AX, DX)
	MOVQ         AX, lbracket+24(FP)
	EQ64(Y5, Y9, Y10, AX, DX)
	MOVQ         AX, rbracket+32(FP)
	EQ64(Y6, Y9, Y10, AX, DX)
	MOVQ         AX, colon+40(FP)
	EQ64(Y7, Y9, Y10, AX, DX)
	MOVQ         AX, comma+48(FP)
	LT64(Y8, Y9, Y10, AX, DX)
	MOVQ         AX, ws+56(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
