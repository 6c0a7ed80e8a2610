package bits

// hasAVX2 reports whether the CPU and the OS support AVX2: CPUID leaf 7
// advertises it, and XCR0 shows the OS saves the YMM registers.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv0(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// Implemented in bits_amd64.s.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

//go:noescape
func loadAVX2(blk *Block, p *[WordSize]byte)

//go:noescape
func eqMaskAVX2(blk *Block, c byte) uint64

//go:noescape
func ltMaskAVX2(blk *Block, c byte) uint64

//go:noescape
func eqMask2AVX2(blk *Block, a, b byte) (ma, mb uint64)

//go:noescape
func eqMask3OrAVX2(blk *Block, a, b, c byte) uint64

//go:noescape
func quoteAndBackslashMasksAVX2(blk *Block) (quotes, backslash uint64)

//go:noescape
func classifyStructuralAVX2(blk *Block) (lbrace, rbrace, lbracket, rbracket, colon, comma, ws uint64)
