package jsonski_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"unicode/utf8"

	"jsonski"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/jsonpath"
)

// FuzzValidate cross-checks the bit-parallel validator against
// encoding/json.Valid: the verdicts must agree on every input, and
// neither direction may panic.
func FuzzValidate(f *testing.F) {
	for _, s := range []string{
		`{"a":1}`,
		`[1,2,3]`,
		`{"s":"é\n","n":-1.5e+3,"b":[true,false,null]}`,
		`"lone string"`,
		`-0.0e0`,
		`{"nested":[{"deep":[[[]]]}]}`,
		`{"a":1,}`,
		`[1 2]`,
		`"unterminated`,
		`{"bad escape":"\q"}`,
		`{"raw ctl":"` + "\x01" + `"}`,
		` 	 [ ] `,
		`01`,
		`{`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := jsonski.Valid(data) // must not panic
		// Near the 10000-level nesting cap the two implementations may
		// draw the line a level apart; keep only the no-panic check there.
		if bytes.Count(data, []byte("["))+bytes.Count(data, []byte("{")) > 9000 {
			return
		}
		if want := json.Valid(data); got != want {
			t.Fatalf("Valid(%q) = %v, encoding/json.Valid = %v", data, got, want)
		}
	})
}

// FuzzParse checks that the JSONPath parser never panics and that a
// successfully parsed path round-trips: String() re-parses to a path
// with the same rendering, and the expression compiles into whichever
// engine (DFA or NFA) its shape selects.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"$",
		"$.a",
		"$.a.b.c",
		"$[0]",
		"$[1:3]",
		"$[*].text",
		"$['quoted name'][2].z",
		"$.*",
		"$..name",
		"$..*",
		"$[0:10].x[*]",
		"$['it''s']",
		"$[",
		"$.",
		"a.b",
		"$[-1]",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		p, err := jsonpath.Parse(expr) // must not panic
		if err != nil {
			return
		}
		src := p.String()
		p2, err := jsonpath.Parse(src)
		if err != nil {
			t.Fatalf("String() of parsed %q gave %q, which fails to re-parse: %v", expr, src, err)
		}
		if got := p2.String(); got != src {
			t.Fatalf("round-trip of %q: String() %q re-parses to %q", expr, src, got)
		}
		if _, err := jsonski.Compile(expr); err != nil {
			t.Fatalf("parsed %q but Compile rejected it: %v", expr, err)
		}
	})
}

// FuzzCompileJSONPath fuzzes the query space itself: Compile must never
// panic, a successfully compiled expression must round-trip through
// String(), and every compiled query must evaluate two fixed valid
// documents without error and with the same match count as the DOM
// reference evaluator.
func FuzzCompileJSONPath(f *testing.F) {
	for _, s := range []string{
		"$",
		"$.a.b",
		"$[*].a",
		"$[1:3]",
		"$[::2]",
		"$[5:1:-2]",
		"$[-1]",
		"$['a','b',1]",
		"$[?@.a]",
		"$[?@.price < 10]",
		"$.a[?@.b == 'k'].c",
		"$[?@.a > $.b]",
		"$[?!(@.a == 1) && @.b || @.c != null]",
		"$..name",
		"$..[?@.x]",
		"$..['a',0]",
		"$.o[?@<3, ?@<3]",
		"$[?@ == 1e2]",
		"$[1:0:-]",
		"$[?length(@) > 1]",
		"$['unterminated",
	} {
		f.Add(s)
	}
	docs := [][]byte{
		[]byte(`{"a": {"b": 1, "c": [1, 2, 3]}, "b": 2, "o": {"p": 1, "q": 4}, "name": "x", "price": 5}`),
		[]byte(`[{"a": 1, "b": true, "price": 3}, {"a": 2, "c": null, "name": "y"}, [5, 6], "s", 7]`),
	}
	f.Fuzz(func(t *testing.T, expr string) {
		q, err := jsonski.Compile(expr) // must not panic
		if err != nil {
			return
		}
		src := q.String()
		q2, err := jsonski.Compile(src)
		if err != nil {
			t.Fatalf("String() of compiled %q gave %q, which fails to compile: %v", expr, src, err)
		}
		if got := q2.String(); got != src {
			t.Fatalf("round-trip of %q: String() %q re-compiles to %q", expr, src, got)
		}
		ref, err := domparser.Compile(expr)
		if err != nil {
			t.Fatalf("Compile accepted %q but the DOM reference rejected it: %v", expr, err)
		}
		for _, data := range docs {
			n, err := q.Count(data)
			if err != nil {
				t.Fatalf("compiled %q errored on a valid document: %v", expr, err)
			}
			want, err := ref.Count(data)
			if err != nil {
				t.Fatalf("DOM reference %q errored on a valid document: %v", expr, err)
			}
			if n != want {
				t.Fatalf("%q: engine found %d matches, DOM reference %d (doc %s)", expr, n, want, data)
			}
		}
	})
}

// fuzzQueryPool are the shapes FuzzDifferential draws from — child
// chains, indexes, slices (stepped, negative, backward), wildcards,
// unions, and filters. All are supported by the DOM reference
// evaluator; descendants are excluded because their emission order is
// engine-specific (FuzzCompileJSONPath covers them by count).
var fuzzQueryPool = []string{
	"$",
	"$.a",
	"$.a.b",
	"$[0]",
	"$[*]",
	"$[1:3]",
	"$[*].a",
	"$.a[*].b",
	"$.*",
	"$[*][0]",
	"$[::2]",
	"$[-1]",
	"$[3:0:-1]",
	"$['a','b',0]",
	"$[?@.a]",
	"$[?@.a == 1]",
	"$.a[?@.b > 1].b",
	"$[?@ < $.b]",
	"$[?@.a && !@.b || @.c == null]",
}

// FuzzDifferential evaluates a pool query over fuzzed JSON three ways —
// the streaming engine, the streaming engine over a shared structural
// index, and the DOM baseline — and requires byte-identical matches.
// The first input byte selects the query; the rest is the document.
func FuzzDifferential(f *testing.F) {
	for q := range fuzzQueryPool {
		f.Add(append([]byte{byte(q)}, `[{"a":{"b":1}},{"a":{"b":[2,3]}},{"c":null}]`...))
	}
	f.Add(append([]byte{1}, `{"a":"text with \"escapes\\\" and é","b":2}`...))
	f.Add(append([]byte{4}, `[ 1 , [2,[3]] , {"a":[4]} , "5, not a sep" ]`...))
	f.Add(append([]byte{2}, `{"a":{"a":{"a":1}},"b":{"a":{"b":5}}}`...))
	f.Add(append([]byte{14}, `[{"a":1},{"b":2},{"a":{"c":3}}]`...))
	f.Add(append([]byte{16}, `{"a":[{"b":0},{"b":2},{"b":9}]}`...))
	f.Add(append([]byte{17}, `[1,5,2,{"x":1}]`...))
	f.Add(append([]byte{12}, `[10,20,30,40]`...))
	f.Add(append([]byte{13}, `{"a":1,"b":2,"c":3}`...))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		expr := fuzzQueryPool[int(in[0])%len(fuzzQueryPool)]
		data := in[1:]
		// Only well-formed documents have defined query results; the
		// engine's laxness on malformed skipped regions is by design.
		if !jsonski.Valid(data) || !json.Valid(data) {
			return
		}
		root, err := domparser.Parse(data)
		if err != nil {
			t.Fatalf("valid input %q rejected by DOM baseline: %v", data, err)
		}
		if !keysClean(root) {
			// The engine compares keys unescaped, the raw-byte baseline
			// doesn't; skip documents with escapes in keys.
			return
		}

		base, err := domparser.Compile(expr)
		if err != nil {
			t.Fatalf("pool query %q: %v", expr, err)
		}
		var want []string
		if _, err := base.Run(data, func(s, e int) {
			want = append(want, string(bytes.TrimSpace(data[s:e])))
		}); err != nil {
			t.Fatalf("baseline %q over %q: %v", expr, data, err)
		}

		q, err := jsonski.Compile(expr)
		if err != nil {
			t.Fatalf("pool query %q: %v", expr, err)
		}
		for _, row := range jsonski.RunRows() {
			got, err := row.Eval(q, data)
			if err != nil {
				t.Fatalf("%s %q over %q: %v", row.Name, expr, data, err)
			}
			compareMatches(t, row.Name+" vs DOM baseline", expr, data, got, want)
		}

		// Output modes: a Tee drives the buffered and zero-copy streaming
		// sinks from one evaluation; their renderings must be
		// byte-identical, and the buffered values must be the callback
		// matches.
		var bufSink jsonski.BufferSink
		var streamed bytes.Buffer
		if _, err := q.Run(context.Background(), jsonski.Bytes(data), jsonski.Tee(&bufSink, jsonski.NewStreamSink(&streamed))); err != nil {
			t.Fatalf("sink run %q over %q: %v", expr, data, err)
		}
		var rendered bytes.Buffer
		sunk := make([]string, 0, len(bufSink.Values))
		for _, v := range bufSink.Values {
			rendered.Write(v)
			rendered.WriteByte('\n')
			sunk = append(sunk, string(bytes.TrimSpace(v)))
		}
		if !bytes.Equal(rendered.Bytes(), streamed.Bytes()) {
			t.Fatalf("buffered and streaming sinks diverge for %q over %q:\n buffered %q\n streamed %q",
				expr, data, rendered.Bytes(), streamed.Bytes())
		}
		compareMatches(t, "buffered sink vs DOM baseline", expr, data, sunk, want)
	})
}

// keysClean reports whether no object key in the tree contains a
// backslash escape.
func keysClean(n *domparser.Node) bool {
	for _, k := range n.Keys {
		if bytes.IndexByte(k, '\\') >= 0 {
			return false
		}
	}
	for _, c := range n.Children {
		if !keysClean(c) {
			return false
		}
	}
	return true
}

func compareMatches(t *testing.T, label, expr string, data []byte, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %q over %q: %d matches vs %d\ngot:  %q\nwant: %q",
			label, expr, data, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: %q over %q: match %d = %q, want %q",
				label, expr, data, i, got[i], want[i])
		}
	}
}

// FuzzOnDemandDifferential drives the lazy on-demand API against the
// DOM reference: a fuzzed selector prefix picks a random hop path down
// the parsed tree, the same hops run as Get/Index navigation, and the
// landed value's raw span and scalar decodes must agree with the DOM
// node byte for byte. The first input byte is the hop budget, the next
// `depth` bytes steer each hop, and the rest is the document.
func FuzzOnDemandDifferential(f *testing.F) {
	doc := []byte(`{"id":7,"user":{"name":"ada","tags":["x","y"]},"items":[{"q":2},{"q":5}],"ok":true,"note":null}`)
	f.Add(append([]byte{3, 1, 0, 0}, doc...))
	f.Add(append([]byte{3, 2, 1, 0}, doc...))
	f.Add(append([]byte{2, 1, 1}, doc...))
	f.Add(append([]byte{0}, []byte(` -1.5e3 `)...))
	f.Add(append([]byte{4, 9, 9, 9, 9}, []byte(`[[[["deep\t\"str\""]]]]`)...))
	f.Add(append([]byte{1, 0}, []byte(`{"dup":1,"dup":2}`)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		depth := int(in[0]) % 7
		if len(in) < 1+depth+1 {
			return
		}
		sel := in[1 : 1+depth]
		data := in[1+depth:]
		if !jsonski.Valid(data) || !json.Valid(data) {
			return
		}
		root, err := domparser.Parse(data)
		if err != nil {
			t.Fatalf("valid input %q rejected by DOM baseline: %v", data, err)
		}
		if !keysClean(root) {
			return
		}

		d := jsonski.Open(data)
		v := d.Root()
		node := root
		for _, b := range sel {
			if len(node.Children) == 0 {
				break
			}
			i := int(b) % len(node.Children)
			switch node.Kind {
			case domparser.KindObject:
				key := node.Keys[i]
				// Get resolves duplicate keys to the first occurrence;
				// follow the same child in the DOM.
				for j, k := range node.Keys {
					if bytes.Equal(k, key) {
						i = j
						break
					}
				}
				v = v.Get(string(key))
			case domparser.KindArray:
				v = v.Index(i)
			}
			node = node.Children[i]
		}

		raw, err := v.Raw()
		if err != nil {
			t.Fatalf("on-demand Raw over %q: %v", data, err)
		}
		want := bytes.TrimSpace(data[node.Span[0]:node.Span[1]])
		if !bytes.Equal(bytes.TrimSpace(raw), want) {
			t.Fatalf("on-demand span %q != DOM span %q (doc %q)", raw, want, data)
		}

		switch node.Kind {
		case domparser.KindString:
			if !utf8.Valid(want) {
				// encoding/json coerces invalid UTF-8 to U+FFFD; Unquote
				// preserves the raw bytes. Only compare where both agree.
				break
			}
			got, err := v.String()
			if err != nil {
				t.Fatalf("String() of %q: %v", want, err)
			}
			var ref string
			if err := json.Unmarshal(want, &ref); err != nil {
				t.Fatalf("reference decode of %q: %v", want, err)
			}
			if got != ref {
				t.Fatalf("String() of %q = %q, want %q", want, got, ref)
			}
		case domparser.KindNumber:
			got, err := v.Float()
			if err != nil {
				t.Fatalf("Float() of %q: %v", want, err)
			}
			ref, err := strconv.ParseFloat(string(want), 64)
			if err != nil {
				t.Fatalf("reference parse of %q: %v", want, err)
			}
			if got != ref && !(math.IsNaN(got) && math.IsNaN(ref)) {
				t.Fatalf("Float() of %q = %v, want %v", want, got, ref)
			}
		case domparser.KindBool:
			got, err := v.Bool()
			if err != nil {
				t.Fatalf("Bool() of %q: %v", want, err)
			}
			if got != (want[0] == 't') {
				t.Fatalf("Bool() of %q = %v", want, got)
			}
		case domparser.KindNull:
			if !v.IsNull() {
				t.Fatalf("IsNull() of %q = false", want)
			}
		}

		if err := d.Close(); err != nil {
			t.Fatalf("Close over %q: %v", data, err)
		}
		st := d.Stats()
		var skipped int64
		for _, b := range st.SkippedBytes {
			skipped += b
		}
		if got := st.ScannedBytes() + skipped; got != st.InputBytes {
			t.Fatalf("accounting over %q: scanned+skipped = %d, input %d", data, got, st.InputBytes)
		}
	})
}
