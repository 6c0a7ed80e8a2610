package bits

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// blockMasks holds every Block classification of one block for one
// choice of pattern bytes.
type blockMasks struct {
	eq, lt, ws, eq3   uint64
	eq2               [2]uint64
	quotes, backslash uint64
	structural        [7]uint64
}

// classifyAll runs every Block method on the block loaded from in, with
// lt as the LtMask bound.
func classifyAll(in []byte, a, b, c, lt byte) blockMasks {
	var blk Block
	blk.Load(in)
	var m blockMasks
	m.eq = blk.EqMask(a)
	m.lt = blk.LtMask(lt)
	m.ws = blk.WhitespaceMask()
	m.eq3 = blk.EqMask3Or(a, b, c)
	m.eq2[0], m.eq2[1] = blk.EqMask2(a, b)
	m.quotes, m.backslash = blk.QuoteAndBackslashMasks()
	s := &m.structural
	s[0], s[1], s[2], s[3], s[4], s[5], s[6] = blk.ClassifyStructural()
	return m
}

// withKernels runs f with the AVX2 kernels switched on or off.
func withKernels(avx2 bool, f func()) {
	saved := useAVX2
	useAVX2 = avx2
	defer func() { useAVX2 = saved }()
	f()
}

// checkPathsAgree fails t unless the AVX2 and SWAR paths return the same
// masks for every Block method on the block loaded from in.
func checkPathsAgree(t *testing.T, in []byte, a, b, c byte) {
	t.Helper()
	if len(in) > WordSize {
		in = in[:WordSize]
	}
	// LtMask is defined for bounds up to 0x80.
	lt := a % 0x81
	var swar, avx2 blockMasks
	withKernels(false, func() { swar = classifyAll(in, a, b, c, lt) })
	withKernels(true, func() { avx2 = classifyAll(in, a, b, c, lt) })
	if swar != avx2 {
		t.Fatalf("input %q patterns %q %q %q (LtMask bound %#x):\nswar:%s\navx2:%s",
			in, a, b, c, lt, swar.summary(), avx2.summary())
	}
}

func (m blockMasks) summary() string {
	var sb strings.Builder
	for _, f := range []struct {
		name string
		v    uint64
	}{
		{"EqMask", m.eq}, {"LtMask", m.lt}, {"WhitespaceMask", m.ws}, {"EqMask3Or", m.eq3},
		{"EqMask2.a", m.eq2[0]}, {"EqMask2.b", m.eq2[1]},
		{"quotes", m.quotes}, {"backslash", m.backslash},
		{"lbrace", m.structural[0]}, {"rbrace", m.structural[1]},
		{"lbracket", m.structural[2]}, {"rbracket", m.structural[3]},
		{"colon", m.structural[4]}, {"comma", m.structural[5]}, {"ws", m.structural[6]},
	} {
		sb.WriteString("\n  ")
		sb.WriteString(f.name)
		sb.WriteString(" ")
		for i := 0; i < WordSize; i++ {
			sb.WriteByte('0' + byte(f.v>>uint(i)&1))
		}
	}
	return sb.String()
}

func requireAVX2(t testing.TB) {
	if !hasAVX2 {
		t.Skip("CPU has no AVX2; only the SWAR kernels exist here")
	}
}

// kernelCases are blocks that probe the places the two paths could part:
// bytes with the high bit set (a signed compare would order them below
// 0x21), the whitespace bound 0x20/0x21, NUL padding of short tails, and
// metacharacters at the lanes where the AVX2 halves meet (31/32) and at
// the block's last lane (63).
func kernelCases() [][]byte {
	at := func(n int, fill byte, pos map[int]byte) []byte {
		b := bytes.Repeat([]byte{fill}, n)
		for i, c := range pos {
			b[i] = c
		}
		return b
	}
	high := make([]byte, WordSize)
	for i := range high {
		high[i] = byte(0x80 + i*2)
	}
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	cases := [][]byte{
		nil,
		{},
		{'"'},
		[]byte(`{"a":[1,2,{"b":"c\"d"}],"e":null}`),
		[]byte(" \t\r\n\x20\x21\x1f\x00\x7f\x80\xa0\xff"),
		high,
		bytes.Repeat([]byte{0x20}, WordSize),
		bytes.Repeat([]byte{0x21}, WordSize),
		bytes.Repeat([]byte{0xff}, WordSize),
		bytes.Repeat([]byte{0}, WordSize),
		at(WordSize, 'x', map[int]byte{31: '"', 32: '"', 63: '"'}),
		at(WordSize, 'x', map[int]byte{31: '\\', 32: '\\', 63: '\\'}),
		at(WordSize, ' ', map[int]byte{0: '{', 31: '}', 32: '[', 33: ']', 62: ':', 63: ','}),
		at(WordSize, 0xa2, map[int]byte{31: 0x22, 32: 0xdc, 63: 0x5c}),
		at(33, 'x', map[int]byte{31: '"', 32: '\\'}),
		at(63, 0x21, map[int]byte{31: 0x20, 32: 0x20, 62: 0x20}),
	}
	for off := 0; off+WordSize <= len(all); off += 16 {
		cases = append(cases, all[off:off+WordSize])
	}
	for n := 0; n <= WordSize; n++ {
		cases = append(cases, all[0xa0:0xa0+n], all[0x10:0x10+n])
	}
	return cases
}

func TestKernelsAVX2MatchSWAR(t *testing.T) {
	requireAVX2(t)
	pats := [][3]byte{
		{'{', '[', ']'}, {',', '}', ']'}, {'"', '\\', ':'},
		{0x00, 0x20, 0x21}, {0x7f, 0x80, 0x81}, {0xff, 0xa2, 0xdc}, {0x80, 0x01, 0xfe},
	}
	for _, in := range kernelCases() {
		for _, p := range pats {
			checkPathsAgree(t, in, p[0], p[1], p[2])
		}
	}
	// Every byte value as the pattern, against a block holding all of
	// 0x00-0x3f or 0xc0-0xff: each lane is exercised as a match and as a
	// near miss on both sides of the sign bit.
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	for c := 0; c < 256; c++ {
		checkPathsAgree(t, all[:WordSize], byte(c), byte(c+1), byte(c-1))
		checkPathsAgree(t, all[256-WordSize:], byte(c), byte(c+1), byte(c-1))
	}
}

// TestDispatchFollowsCPU pins the init-time choice: the AVX2 kernels are
// in use exactly when the CPU supports them.
func TestDispatchFollowsCPU(t *testing.T) {
	if useAVX2 != hasAVX2 {
		t.Fatalf("useAVX2 = %v, hasAVX2 = %v", useAVX2, hasAVX2)
	}
}

// FuzzKernels checks that for arbitrary input, sliced into 64-byte blocks
// and a 0-64-byte tail, every Block method returns the same masks from
// the AVX2 and SWAR kernels.
func FuzzKernels(f *testing.F) {
	for _, in := range kernelCases() {
		f.Add(in, byte('{'), byte('"'), byte(0x21))
	}
	doc, err := os.ReadFile("../../testdata/rfc9535/cts.json")
	if err != nil {
		f.Fatal(err)
	}
	for off := 0; off < len(doc); off += 997 {
		end := min(off+3*WordSize+17, len(doc))
		f.Add(doc[off:end], byte(':'), byte(','), byte('\\'))
	}
	f.Fuzz(func(t *testing.T, data []byte, a, b, c byte) {
		requireAVX2(t)
		for len(data) > WordSize {
			checkPathsAgree(t, data[:WordSize], a, b, c)
			data = data[WordSize:]
		}
		checkPathsAgree(t, data, a, b, c)
	})
}
