package jsonski

import (
	"context"
	"testing"
)

func matchOf(v string) Match { return Match{Value: []byte(v)} }

func TestKind(t *testing.T) {
	cases := []struct {
		v    string
		want Kind
	}{
		{`{"a":1}`, KindObject},
		{`[1]`, KindArray},
		{`"s"`, KindString},
		{`-1.5`, KindNumber},
		{`42`, KindNumber},
		{`true`, KindBool},
		{`false`, KindBool},
		{`null`, KindNull},
		{``, KindInvalid},
	}
	for _, c := range cases {
		if got := matchOf(c.v).Kind(); got != c.want {
			t.Errorf("Kind(%q) = %v, want %v", c.v, got, c.want)
		}
	}
	for _, k := range []Kind{KindObject, KindArray, KindString, KindNumber, KindBool, KindNull, KindInvalid} {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", k)
		}
	}
}

func TestMatchString(t *testing.T) {
	if got := matchOf(`"hello"`).String(); got != "hello" {
		t.Errorf("got %q", got)
	}
	if got := matchOf(`"tab\tnl\n"`).String(); got != "tab\tnl\n" {
		t.Errorf("got %q", got)
	}
	if got := matchOf(`123`).String(); got != "123" {
		t.Errorf("non-string String() = %q", got)
	}
}

func TestMatchNumeric(t *testing.T) {
	f, err := matchOf(`-2.5e2`).Float()
	if err != nil || f != -250 {
		t.Errorf("Float = %v, %v", f, err)
	}
	i, err := matchOf(`-42`).Int()
	if err != nil || i != -42 {
		t.Errorf("Int = %v, %v", i, err)
	}
	if _, err := matchOf(`"nope"`).Float(); err == nil {
		t.Error("Float on string should error")
	}
	if _, err := matchOf(`true`).Int(); err == nil {
		t.Error("Int on bool should error")
	}
}

func TestMatchBoolNull(t *testing.T) {
	b, err := matchOf(`true`).Bool()
	if err != nil || !b {
		t.Errorf("Bool = %v, %v", b, err)
	}
	b, err = matchOf(`false`).Bool()
	if err != nil || b {
		t.Errorf("Bool = %v, %v", b, err)
	}
	if _, err := matchOf(`1`).Bool(); err == nil {
		t.Error("Bool on number should error")
	}
	if !matchOf(`null`).IsNull() || matchOf(`0`).IsNull() {
		t.Error("IsNull broken")
	}
}

func TestUnquote(t *testing.T) {
	cases := []struct{ in, want string }{
		{`"plain"`, "plain"},
		{`""`, ""},
		{`"a\"b"`, `a"b`},
		{`"a\\b"`, `a\b`},
		{`"a\/b"`, "a/b"},
		{`"\b\f\n\r\t"`, "\b\f\n\r\t"},
		{`"\u0041"`, "A"},
		{`"\u00e9"`, "é"},
		{`"\u20ac"`, "€"},
		{`"\ud83d\ude00"`, "😀"}, // surrogate pair
		{`"\ud800"`, "�"},       // lone surrogate -> replacement
		{`"mix \u0041\t\"x\" done"`, "mix A\t\"x\" done"},
	}
	for _, c := range cases {
		got, err := Unquote([]byte(c.in))
		if err != nil || got != c.want {
			t.Errorf("Unquote(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
}

func TestUnquoteErrors(t *testing.T) {
	bad := []string{
		`noquotes`,
		`"unclosed`,
		`"`,
		`"\q"`,
		`"\u12"`,
		`"\uZZZZ"`,
		`"dangling\"`,
	}
	for _, in := range bad {
		if _, err := Unquote([]byte(in)); err == nil {
			t.Errorf("Unquote(%q) should fail", in)
		}
	}
}

func TestMatchHelpersEndToEnd(t *testing.T) {
	q := MustCompile("$.user.name")
	data := []byte(`{"user": {"name": "ada", "id": 7}}`)
	var name string
	q.Run(context.Background(), Bytes(data), FuncSink(func(m Match) {
		if m.Kind() != KindString {
			t.Errorf("kind = %v", m.Kind())
		}
		name = m.String()
	}))
	if name != "ada" {
		t.Errorf("name = %q", name)
	}
}
