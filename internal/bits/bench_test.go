package bits

import "testing"

var sink uint64

func benchInput() []byte {
	b := make([]byte, 1<<16)
	for i := range b {
		b[i] = byte("abcdefgh{}[],:\" 0123456789"[i%26])
	}
	return b
}

func BenchmarkLoad(b *testing.B) {
	in := benchInput()
	var blk Block
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		for off := 0; off+WordSize <= len(in); off += WordSize {
			blk.Load(in[off:])
			sink ^= blk[0]
		}
	}
}

func BenchmarkEqMask(b *testing.B) {
	in := benchInput()
	var blk Block
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		for off := 0; off+WordSize <= len(in); off += WordSize {
			blk.Load(in[off:])
			sink ^= blk.EqMask('{')
		}
	}
}

func BenchmarkQuoteBackslash(b *testing.B) {
	in := benchInput()
	var blk Block
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		for off := 0; off+WordSize <= len(in); off += WordSize {
			blk.Load(in[off:])
			q, bs := blk.QuoteAndBackslashMasks()
			sink ^= q ^ bs
		}
	}
}

func BenchmarkFullStringPipeline(b *testing.B) {
	in := benchInput()
	var blk Block
	var ec EscapeCarry
	var sc StringCarry
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		for off := 0; off+WordSize <= len(in); off += WordSize {
			blk.Load(in[off:])
			q, bs := blk.QuoteAndBackslashMasks()
			q &^= ec.Escaped(bs)
			sink ^= sc.InStringMask(q)
		}
	}
}

// benchKernel runs kernel over every block of the bench input, once per
// path, so the AVX2/SWAR ratio of each kernel can be rerun on any host.
func benchKernel(b *testing.B, kernel func(blk *Block) uint64) {
	in := benchInput()
	for _, path := range []struct {
		name string
		avx2 bool
	}{{"swar", false}, {"avx2", true}} {
		b.Run(path.name, func(b *testing.B) {
			if path.avx2 {
				requireAVX2(b)
			}
			withKernels(path.avx2, func() {
				var blk Block
				b.SetBytes(int64(len(in)))
				for i := 0; i < b.N; i++ {
					for off := 0; off+WordSize <= len(in); off += WordSize {
						blk.Load(in[off:])
						sink ^= kernel(&blk)
					}
				}
			})
		})
	}
}

func BenchmarkClassifyStructural(b *testing.B) {
	benchKernel(b, func(blk *Block) uint64 {
		lb, rb, lk, rk, co, cm, ws := blk.ClassifyStructural()
		return lb ^ rb ^ lk ^ rk ^ co ^ cm ^ ws
	})
}

func BenchmarkEqMask2(b *testing.B) {
	benchKernel(b, func(blk *Block) uint64 {
		ma, mb := blk.EqMask2(':', ',')
		return ma ^ mb
	})
}

func BenchmarkEqMask3Or(b *testing.B) {
	benchKernel(b, func(blk *Block) uint64 { return blk.EqMask3Or(',', '}', ']') })
}

func BenchmarkWhitespaceMask(b *testing.B) {
	benchKernel(b, (*Block).WhitespaceMask)
}
