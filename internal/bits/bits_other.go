//go:build !amd64

package bits

// hasAVX2 is false off amd64: the SWAR kernels serve every Block method.
const hasAVX2 = false

// The AVX2 entry points exist only so the dispatch in bits.go compiles;
// useAVX2 is never true here, so reaching one is a bug.

func loadAVX2(*Block, *[WordSize]byte) { panic(errNoAVX2) }

func eqMaskAVX2(*Block, byte) uint64 { panic(errNoAVX2) }

func ltMaskAVX2(*Block, byte) uint64 { panic(errNoAVX2) }

func eqMask2AVX2(*Block, byte, byte) (uint64, uint64) { panic(errNoAVX2) }

func eqMask3OrAVX2(*Block, byte, byte, byte) uint64 { panic(errNoAVX2) }

func quoteAndBackslashMasksAVX2(*Block) (uint64, uint64) { panic(errNoAVX2) }

func classifyStructuralAVX2(*Block) (lbrace, rbrace, lbracket, rbracket, colon, comma, ws uint64) {
	panic(errNoAVX2)
}

const errNoAVX2 = "bits: AVX2 kernel called on a CPU without AVX2"
