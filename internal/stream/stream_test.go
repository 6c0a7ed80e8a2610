package stream

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestSkipWS(t *testing.T) {
	s := New([]byte("   \t\n\r  {\"a\":1}"))
	b, ok := s.SkipWS()
	if !ok || b != '{' {
		t.Fatalf("SkipWS = %q,%v want '{',true", b, ok)
	}
	if s.Pos() != 8 {
		t.Fatalf("pos = %d want 8", s.Pos())
	}
}

func TestSkipWSAllWhitespace(t *testing.T) {
	s := New([]byte(strings.Repeat(" ", 200)))
	if _, ok := s.SkipWS(); ok {
		t.Fatal("SkipWS on all-whitespace input should report EOF")
	}
	if !s.EOF() {
		t.Fatal("stream should be at EOF")
	}
}

func TestSkipWSEmpty(t *testing.T) {
	s := New(nil)
	if _, ok := s.SkipWS(); ok {
		t.Fatal("SkipWS on empty input should report EOF")
	}
}

func TestNextMetaBasic(t *testing.T) {
	in := []byte(`{"a": 1, "b": {"c": 2}}`)
	s := New(in)
	p := s.NextMeta(Colon)
	if p != 4 {
		t.Fatalf("first colon at %d, want 4", p)
	}
	s.Advance(1)
	p = s.NextMeta(Colon)
	if in[p] != ':' || p != 12 {
		t.Fatalf("second colon at %d, want 12", p)
	}
}

func TestNextMetaIgnoresStrings(t *testing.T) {
	in := []byte(`{"tricky:,{}[]": "also:{}", "real": 1}`)
	s := New(in)
	p := s.NextMeta(Colon)
	if in[p] != ':' {
		t.Fatalf("NextMeta landed on %q", in[p])
	}
	// the first structural colon is the one after "tricky:,{}[]"
	want := bytes.Index(in, []byte(`": "also`)) + 1
	if p != want {
		t.Fatalf("colon at %d, want %d", p, want)
	}
}

func TestNextMetaAcrossWords(t *testing.T) {
	pad := strings.Repeat("x", 150)
	in := []byte(`{"` + pad + `": 7}`)
	s := New(in)
	p := s.NextMeta(Colon)
	want := bytes.IndexByte(in, ':')
	if p != want {
		t.Fatalf("colon at %d, want %d", p, want)
	}
}

func TestNextMetaEOF(t *testing.T) {
	s := New([]byte(`"no structure here"`))
	if p := s.NextMeta(Colon); p != -1 {
		t.Fatalf("NextMeta = %d, want -1", p)
	}
}

func TestNextMeta2(t *testing.T) {
	in := []byte(`[1, 2, {"a": 3}]`)
	s := New(in)
	s.Advance(1)
	p, m := s.NextMeta2(LBrace, RBracket)
	if m != LBrace || in[p] != '{' {
		t.Fatalf("NextMeta2 = %d,%v", p, m)
	}
	// from inside the object, next of (LBrace, RBracket) is the ']'
	s.Advance(1)
	p, m = s.NextMeta2(LBrace, RBracket)
	if m != RBracket || in[p] != ']' {
		t.Fatalf("NextMeta2 = %d,%v", p, m)
	}
}

func TestReadString(t *testing.T) {
	in := []byte(`"hello" tail`)
	s := New(in)
	got, err := s.ReadString()
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadString = %q, %v", got, err)
	}
	if s.Pos() != 7 {
		t.Fatalf("pos after ReadString = %d, want 7", s.Pos())
	}
}

func TestReadStringEscapes(t *testing.T) {
	cases := []struct{ in, want string }{
		{`"a\"b"`, `a\"b`},
		{`"\\"`, `\\`},
		{`"\\\""`, `\\\"`},
		{`"nested \"quoted\" words"`, `nested \"quoted\" words`},
	}
	for _, c := range cases {
		s := New([]byte(c.in))
		got, err := s.ReadString()
		if err != nil || string(got) != c.want {
			t.Errorf("ReadString(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
}

func TestReadStringAcrossWords(t *testing.T) {
	body := strings.Repeat("abcdefgh", 20) // 160 bytes
	in := []byte(`"` + body + `":1`)
	s := New(in)
	got, err := s.ReadString()
	if err != nil || string(got) != body {
		t.Fatalf("ReadString long = %d bytes, err %v", len(got), err)
	}
	if b, _ := s.SkipWS(); b != ':' {
		t.Fatalf("after long string expected ':', got %q", b)
	}
}

func TestReadStringUnterminated(t *testing.T) {
	s := New([]byte(`"never ends...`))
	if _, err := s.ReadString(); err == nil {
		t.Fatal("expected error for unterminated string")
	}
}

func TestReadStringNotAQuote(t *testing.T) {
	s := New([]byte(`123`))
	if _, err := s.ReadString(); err == nil {
		t.Fatal("expected error when cursor is not on a quote")
	}
}

func TestSkipPrimitive(t *testing.T) {
	cases := []struct {
		in   string
		want string // expected primitive text
	}{
		{`123, "x"`, "123"},
		{`-3.25e8}`, "-3.25e8"},
		{`true]`, "true"},
		{`null , 2`, "null"},
		{`42`, "42"}, // terminated by EOF
	}
	for _, c := range cases {
		s := New([]byte(c.in))
		st, en := s.SkipPrimitive()
		if got := c.in[st:en]; got != c.want {
			t.Errorf("SkipPrimitive(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSkipPrimitiveLongNumberAcrossWords(t *testing.T) {
	num := strings.Repeat("9", 100)
	in := num + ","
	s := New([]byte(in))
	st, en := s.SkipPrimitive()
	if in[st:en] != num {
		t.Fatalf("long primitive = %q", in[st:en])
	}
	if s.Current() != ',' {
		t.Fatalf("cursor on %q, want ','", s.Current())
	}
}

func TestExpect(t *testing.T) {
	s := New([]byte("  { }"))
	if err := s.Expect('{'); err != nil {
		t.Fatal(err)
	}
	if err := s.Expect('}'); err != nil {
		t.Fatal(err)
	}
	if err := s.Expect('{'); err == nil {
		t.Fatal("Expect past EOF should fail")
	}
}

func TestExpectWrongByte(t *testing.T) {
	s := New([]byte("[1]"))
	if err := s.Expect('{'); err == nil {
		t.Fatal("Expect('{') on '[' should fail")
	}
}

func TestSetPosBackwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetPos backwards should panic")
		}
	}()
	s := New([]byte("abcdef"))
	s.SetPos(3)
	s.SetPos(1)
}

func TestSetPosClampsToLen(t *testing.T) {
	s := New([]byte("ab"))
	s.SetPos(100)
	if !s.EOF() || s.Pos() != 2 {
		t.Fatalf("pos = %d, EOF = %v", s.Pos(), s.EOF())
	}
}

// TestMaskFiltersStrings checks that metacharacters inside strings are
// absent from the structural masks, on a lazy stream and on a stream
// borrowing a prebuilt index.
func TestMaskFiltersStrings(t *testing.T) {
	cases := []struct {
		in   string
		want map[Meta]uint64
	}{
		// Only the outer braces and the structural colon.
		{`{"k{}[]:,":1}`, map[Meta]uint64{
			LBrace: 1 << 0, RBrace: 1 << 12, LBracket: 0, RBracket: 0,
			Colon: 1 << 10, Comma: 0,
		}},
		// The '}', '{' and ',' at 6..8 are inside the string.
		{`{"a":"}{,","b":[1,2]}`, map[Meta]uint64{
			LBrace: 1 << 0, RBrace: 1 << 20, LBracket: 1 << 15, RBracket: 1 << 19,
			Colon: 1<<4 | 1<<14, Comma: 1<<10 | 1<<17,
		}},
	}
	for _, tc := range cases {
		in := []byte(tc.in)
		ix := NewIndex(in)
		streams := []struct {
			kind string
			s    *Stream
		}{{"lazy", New(in)}, {"indexed", NewIndexed(ix)}}
		for _, st := range streams {
			for m, want := range tc.want {
				if got := st.s.Mask(m); got != want {
					t.Errorf("%s %q meta %c: mask %b, want %b", st.kind, tc.in, m.Byte(), got, want)
				}
			}
		}
		ix.Release()
	}
}

func TestResetReuses(t *testing.T) {
	s := New([]byte(`{"a":1}`))
	s.NextMeta(Colon)
	s.Reset([]byte(`[9]`))
	if s.Pos() != 0 {
		t.Fatal("Reset should rewind")
	}
	if p := s.NextMeta(RBracket); p != 2 {
		t.Fatalf("RBracket at %d, want 2", p)
	}
}

// TestNextMetaRandomOracle cross-checks NextMeta against a scalar scan on
// randomly generated JSON-ish strings.
func TestNextMetaRandomOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte(`ab {}[]:,"\`)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		in := make([]byte, n)
		for i := range in {
			in[i] = alphabet[rng.Intn(len(alphabet))]
		}
		// Scalar oracle matching the paper's classification: escapes
		// only affect quote recognition (a bare backslash outside a
		// string is invalid JSON, so its effect on other bytes is
		// unspecified); metacharacters count unless inside a string.
		oracle := func(target byte) int {
			esc := make([]bool, n)
			for i := 0; i < n; i++ {
				if in[i] == '\\' && !esc[i] && i+1 < n {
					esc[i+1] = true
				}
			}
			inStr := false
			for i := 0; i < n; i++ {
				c := in[i]
				if c == '"' && !esc[i] {
					inStr = !inStr
					continue
				}
				if !inStr && c == target {
					return i
				}
			}
			return -1
		}
		for _, m := range []Meta{LBrace, RBrace, LBracket, RBracket, Colon, Comma} {
			s := New(in)
			got := s.NextMeta(m)
			want := oracle(m.Byte())
			if got != want {
				t.Fatalf("trial %d meta %v: NextMeta=%d oracle=%d input %q", trial, m, got, want, in)
			}
		}
	}
}

func TestWordsProcessedMonotonic(t *testing.T) {
	in := []byte(strings.Repeat(`{"a":1}`, 64))
	s := New(in)
	before := s.WordsProcessed
	s.SetPos(300)
	if s.WordsProcessed <= before {
		t.Fatal("skipping ahead must still fold skipped words through the pipeline")
	}
}

func TestAccessors(t *testing.T) {
	in := []byte(`{"a": 1}`)
	s := New(in)
	if s.Len() != len(in) || string(s.Data()) != string(in) {
		t.Fatal("Data/Len broken")
	}
	if s.ByteAt(1) != '"' {
		t.Fatal("ByteAt broken")
	}
	if s.WordBase() != 0 {
		t.Fatal("WordBase broken")
	}
	if Colon.String() != ":" || LBrace.String() != "{" {
		t.Fatal("Meta.String broken")
	}
	s.SetPos(2) // inside the "a" string (opening quote at 1 flagged)
	if !s.InString() {
		t.Fatal("InString should be true inside key")
	}
	s.SetPos(6)
	if s.InString() {
		t.Fatal("InString should be false at value")
	}
	s.SetPos(len(in))
	if s.InString() {
		t.Fatal("InString at EOF should be false")
	}
}

func TestMaskFrom2AndStopMasks(t *testing.T) {
	in := []byte(`{"k": [1, {"x": 2}], "s": "fake{[}"}`)
	s := New(in)
	om, cm := s.MaskFrom2(LBrace, RBrace)
	if om != s.MaskFrom(LBrace) || cm != s.MaskFrom(RBrace) {
		t.Fatal("MaskFrom2 disagrees with MaskFrom")
	}
	// quotes are rejected from the fused path but still correct
	qm, cm2 := s.MaskFrom2(Quote, RBrace)
	if qm != s.MaskFrom(Quote) || cm2 != s.MaskFrom(RBrace) {
		t.Fatal("MaskFrom2 with Quote disagrees")
	}
	stop := s.StopMaskFrom()
	want := s.MaskFrom(LBrace) | s.MaskFrom(LBracket) | s.MaskFrom(RBracket)
	if stop != want {
		t.Fatalf("StopMaskFrom = %b want %b", stop, want)
	}
	astop := s.AttrStopMaskFrom()
	want = s.MaskFrom(LBrace) | s.MaskFrom(LBracket) | s.MaskFrom(RBrace)
	if astop != want {
		t.Fatalf("AttrStopMaskFrom = %b want %b", astop, want)
	}
}

func TestSkipString(t *testing.T) {
	in := []byte(`"skip \" me" tail`)
	s := New(in)
	if err := s.SkipString(); err != nil {
		t.Fatal(err)
	}
	if got := string(in[s.Pos():]); got != " tail" {
		t.Fatalf("cursor at %q", got)
	}
	s = New([]byte(`"unterminated`))
	if err := s.SkipString(); err == nil {
		t.Fatal("expected error")
	}
}

func TestNextTerm(t *testing.T) {
	in := []byte(`{"a": 12, "b": ",]}", "c": [true]}`)
	s := New(in)
	s.SetPos(6) // on the '1' of 12
	p, b := s.NextTerm()
	if b != ',' || in[p] != ',' || p != 8 {
		t.Fatalf("NextTerm = %d,%q, want 8,','", p, b)
	}
	// terminators inside the string value of "b" are masked out
	s.SetPos(15) // opening quote of ",]}"
	p, b = s.NextTerm()
	if b != ',' || p != 20 {
		t.Fatalf("NextTerm = %d,%q, want 20,','", p, b)
	}
	s.SetPos(28) // on 'true'
	p, b = s.NextTerm()
	if b != ']' || in[p] != ']' {
		t.Fatalf("NextTerm = %d,%q, want ']'", p, b)
	}
}

func TestNextTermAcrossWordsAndEOF(t *testing.T) {
	long := append([]byte(`[12345`), make([]byte, 80)...)
	for i := 6; i < len(long); i++ {
		long[i] = '0'
	}
	long = append(long, ']')
	s := New(long)
	s.Advance(1)
	p, b := s.NextTerm()
	if b != ']' || p != len(long)-1 {
		t.Fatalf("NextTerm = %d,%q, want closing bracket", p, b)
	}
	s2 := New([]byte(`true`))
	if p, _ := s2.NextTerm(); p != -1 {
		t.Fatalf("NextTerm at EOF = %d, want -1", p)
	}
}
