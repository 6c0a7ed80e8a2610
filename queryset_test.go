package jsonski

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"jsonski/internal/gen"
	"jsonski/internal/queries"
)

func TestCompileSetErrors(t *testing.T) {
	if _, err := CompileSet(); err == nil {
		t.Fatal("empty set should error")
	}
	if _, err := CompileSet("$.ok", "$..["); err == nil {
		t.Fatal("bad member should error")
	}
}

func TestQuerySetSidecarRouting(t *testing.T) {
	// Every member runs on the engine its own Compile picks: the DFA for
	// plain paths and filters, the NFA for descendants, the segmented
	// engine for deferred selectors. All answer.
	qs := MustCompileSet(
		"$.items[*].name",            // DFA
		"$.items[?@.price<10]",       // DFA with filter probes
		"$..price",                   // NFA
		"$.items[-1]",                // segmented (negative index)
		"$.items[0]['name','price']", // segmented (union)
	)
	data := []byte(`{"items": [{"name": "a", "price": 5}, {"name": "b", "price": 20}]}`)
	got := map[int][]string{}
	_, err := qs.Run(data, func(m SetMatch) {
		got[m.Query] = append(got[m.Query], string(m.Value))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]string{
		0: {`"a"`, `"b"`},
		1: {`{"name": "a", "price": 5}`},
		2: {`5`, `20`},
		3: {`{"name": "b", "price": 20}`},
		4: {`"a"`, `5`},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMustCompileSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCompileSet("nope")
}

func TestQuerySetBasic(t *testing.T) {
	qs := MustCompileSet("$.user.name", "$.user.id", "$.tags[0]")
	data := []byte(`{"user": {"name": "ada", "id": 7, "x": 1}, "tags": ["a", "b"], "pad": {"z": 0}}`)
	got := map[int][]string{}
	st, err := qs.Run(data, func(m SetMatch) {
		got[m.Query] = append(got[m.Query], string(m.Value))
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 3 {
		t.Fatalf("matches = %d", st.Matches)
	}
	want := map[int][]string{0: {`"ada"`}, 1: {`7`}, 2: {`"a"`}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if qs.Len() != 3 || qs.Expr(1) != "$.user.id" {
		t.Fatal("metadata accessors broken")
	}
}

func TestQuerySetRootQuery(t *testing.T) {
	qs := MustCompileSet("$", "$.a")
	data := []byte(`{"a": 1}`)
	counts, err := qs.Counts(data)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestQuerySetSharedPrefix(t *testing.T) {
	qs := MustCompileSet("$.a.b", "$.a.c", "$.a.b") // duplicate allowed
	data := []byte(`{"a": {"b": 1, "c": 2, "d": 3}}`)
	counts, err := qs.Counts(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counts, []int64{1, 1, 1}) {
		t.Fatalf("counts = %v", counts)
	}
}

func TestQuerySetWildcards(t *testing.T) {
	qs := MustCompileSet("$[*].v", "$[1:3].w", "$[0]")
	data := []byte(`[{"v":1,"w":9},{"v":2,"w":8},{"v":3,"w":7},{"v":4}]`)
	counts, err := qs.Counts(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counts, []int64{4, 2, 1}) {
		t.Fatalf("counts = %v", counts)
	}
}

// TestQuerySetMatchesIndividualRuns is the differential backbone: a set
// run must produce exactly what the member queries produce alone.
func TestQuerySetMatchesIndividualRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(2468))
	sets := [][]string{
		{"$.a", "$.b"},
		{"$.a.b", "$.a[*]", "$.name"},
		{"$[*].id", "$[0:2]", "$[*].a.name"},
		{"$.items[*].v", "$.items[1:3]", "$.v", "$"},
		{"$.b[*].c", "$.c[0]", "$.a.b"},
	}
	for trial := 0; trial < 200; trial++ {
		doc := genDocForSet(rng, 5)
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		exprs := sets[trial%len(sets)]
		qs := MustCompileSet(exprs...)
		got := make([][]string, len(exprs))
		if _, err := qs.Run(enc, func(m SetMatch) {
			got[m.Query] = append(got[m.Query], string(m.Value))
		}); err != nil {
			t.Fatalf("trial %d: %v\ndoc: %s", trial, err, enc)
		}
		for qi, expr := range exprs {
			q := MustCompile(expr)
			var want []string
			if _, err := q.Run(enc, func(m Match) {
				want = append(want, string(m.Value))
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[qi], want) {
				t.Fatalf("trial %d query %q:\nset run: %q\nsolo run: %q\ndoc: %s",
					trial, expr, got[qi], want, enc)
			}
		}
	}
}

func genDocForSet(rng *rand.Rand, depth int) any {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(1000)
		case 1:
			return "s" + strings.Repeat(`x{}[]:,"`, rng.Intn(3))
		case 2:
			return true
		default:
			return nil
		}
	}
	if rng.Intn(2) == 0 {
		keys := []string{"a", "b", "c", "id", "name", "items", "v"}
		m := map[string]any{}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			m[keys[rng.Intn(len(keys))]] = genDocForSet(rng, depth-1)
		}
		return m
	}
	arr := make([]any, 0, 4)
	for i, n := 0, rng.Intn(5); i < n; i++ {
		arr = append(arr, genDocForSet(rng, depth-1))
	}
	return arr
}

func TestQuerySetConcurrent(t *testing.T) {
	qs := MustCompileSet("$.a", "$.b[*]")
	data := []byte(`{"a": 1, "b": [2, 3]}`)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				counts, err := qs.Counts(data)
				if err != nil {
					done <- err
					return
				}
				if counts[0] != 1 || counts[1] != 2 {
					done <- fmt.Errorf("counts = %v", counts)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuerySetFastForwardStillHigh(t *testing.T) {
	qs := MustCompileSet("$.mt.vw.co[*].nm", "$.mt.id")
	var sb strings.Builder
	sb.WriteString(`{"mt": {"id": "x", "vw": {"co": [{"nm": "a"}, {"nm": "b"}]}}, "dt": [`)
	for i := 0; i < 5000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d]", i, i)
	}
	sb.WriteString(`]}`)
	data := []byte(sb.String())
	st, err := qs.Run(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 3 {
		t.Fatalf("matches = %d", st.Matches)
	}
	if st.FastForwardRatio() < 0.9 {
		t.Errorf("set run fast-forward ratio = %.3f", st.FastForwardRatio())
	}
}

func TestQuerySetRunRecords(t *testing.T) {
	qs := MustCompileSet("$.a", "$.b")
	records := [][]byte{
		[]byte(`{"a": 1, "b": "x"}`),
		[]byte(`{"b": "y"}`),
		[]byte(`{"a": 3}`),
	}
	var got []string
	st, err := qs.RunRecords(records, func(m SetMatch) {
		got = append(got, fmt.Sprintf("%d/%d=%s", m.Record, m.Query, m.Value))
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 4 {
		t.Fatalf("matches = %d", st.Matches)
	}
	want := []string{`0/0=1`, `0/1="x"`, `1/1="y"`, `2/0=3`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestQuerySetRunRecordsErrorNamesRecord(t *testing.T) {
	qs := MustCompileSet("$.a")
	records := [][]byte{[]byte(`{"a": 1}`), []byte(`{"a": `)}
	_, err := qs.RunRecords(records, nil)
	if err == nil || !strings.Contains(err.Error(), "record 1:") {
		t.Fatalf("err = %v", err)
	}
}

// TestQuerySetMemberCases pins per-member answers where members diverge
// in what they need from the same bytes: a member whose root type cannot
// match next to members that can, a bare `$`, a primitive record, array
// members with different ranges, a wildcard beside a named child, and
// one member accepting the value another descends into.
func TestQuerySetMemberCases(t *testing.T) {
	cases := []struct {
		name  string
		exprs []string
		data  string
		want  map[int][]string // matches per member
	}{
		{"basic", []string{"$.a", "$.b.c", "$.d[1]"},
			`{"a": 1, "b": {"c": 2, "x": 0}, "d": [10, 20, 30], "z": {"deep": [1]}}`,
			map[int][]string{0: {"1"}, 1: {"2"}, 2: {"20"}}},
		{"root-type-kill", []string{"$[*].x", "$", "$.a"}, `{"a": 5}`,
			map[int][]string{1: {`{"a": 5}`}, 2: {"5"}}},
		{"primitive-record", []string{"$", "$.a"}, `  42 `,
			map[int][]string{0: {"42"}}},
		{"mixed-array-steps", []string{"$[*]", "$[1:2]"}, `[ "a", "b", "c" ]`,
			map[int][]string{0: {`"a"`, `"b"`, `"c"`}, 1: {`"b"`}}},
		{"slice-union", []string{"$[1:3]", "$[4:6]"}, `[0, 1, 2, 3, 4, 5, 6, 7]`,
			map[int][]string{0: {"1", "2"}, 1: {"4", "5"}}},
		{"any-child", []string{"$.*", "$.b"}, `{"a": 1, "b": 2}`,
			map[int][]string{0: {"1", "2"}, 1: {"2"}}},
		{"accept-and-descend", []string{"$.a", "$.a.b"}, `{"a": {"b": 7, "c": 8}}`,
			map[int][]string{0: {`{"b": 7, "c": 8}`}, 1: {"7"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			qs := MustCompileSet(tc.exprs...)
			data := []byte(tc.data)
			got := map[int][]string{}
			st, err := qs.Run(data, func(m SetMatch) {
				got[m.Query] = append(got[m.Query], string(m.Value))
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v want %v", got, tc.want)
			}
			var n int64
			for _, vs := range tc.want {
				n += int64(len(vs))
			}
			if st.Matches != n {
				t.Fatalf("matches = %d, want %d", st.Matches, n)
			}
		})
	}
	st, err := MustCompileSet("$.a", "$.b.c").Run([]byte(`{"a": 1, "b": {"c": 2}, "z": {"deep": [1]}}`), nil)
	if err != nil || st.FastForwardRatio() <= 0 {
		t.Fatalf("expected the z subtree to be fast-forwarded: ratio %.3f err %v", st.FastForwardRatio(), err)
	}
}

// TestQuerySetErrors checks that malformed records fail every set entry
// point.
func TestQuerySetErrors(t *testing.T) {
	qs := MustCompileSet("$.a.b", "$.c")
	for _, in := range []string{`{"a": {"b": `, `{"a"`} {
		if _, err := qs.Run([]byte(in), nil); err == nil {
			t.Errorf("Run: expected error for %q", in)
		}
		if _, err := qs.RunSink([]byte(in), &CountSink{}); err == nil {
			t.Errorf("RunSink: expected error for %q", in)
		}
	}
}

// TestQuerySetEmptyInput checks that a record holding only whitespace is
// an error, not an empty result.
func TestQuerySetEmptyInput(t *testing.T) {
	qs := MustCompileSet("$.a")
	if _, err := qs.Run([]byte("   "), nil); err == nil {
		t.Error("Run: expected error")
	}
	if _, err := qs.RunSink([]byte("   "), &CountSink{}); err == nil {
		t.Error("RunSink: expected error")
	}
}

// TestQuerySetReuse checks that a set is reusable across runs: pooled
// member engines carry no state from one run into the next.
func TestQuerySetReuse(t *testing.T) {
	qs := MustCompileSet("$.v")
	for i := 0; i < 3; i++ {
		st, err := qs.Run([]byte(`{"v": 1}`), nil)
		if err != nil || st.Matches != 1 {
			t.Fatalf("iter %d: st=%+v err=%v", i, st, err)
		}
	}
}

// TestQuerySetRandomDifferential compares set runs over random documents
// against each member run alone, on raw bytes and over a built index.
func TestQuerySetRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(8888))
	sets := [][]string{
		{"$.a", "$.b", "$.a.b"},
		{"$[*].id", "$[0:3]", "$[*].a"},
		{"$.items[*].v", "$.items[2]", "$.name"},
	}
	for trial := 0; trial < 150; trial++ {
		enc, err := json.Marshal(genDocForSet(rng, 5))
		if err != nil {
			t.Fatal(err)
		}
		exprs := sets[trial%len(sets)]
		qs := MustCompileSet(exprs...)
		got := make([][]string, len(exprs))
		if _, err := qs.Run(enc, func(m SetMatch) {
			got[m.Query] = append(got[m.Query], string(m.Value))
		}); err != nil {
			t.Fatalf("trial %d: %v\ndoc: %s", trial, err, enc)
		}
		idx := BuildIndex(enc)
		gotIdx := make([][]string, len(exprs))
		if _, err := qs.RunIndexed(idx, func(m SetMatch) {
			gotIdx[m.Query] = append(gotIdx[m.Query], string(m.Value))
		}); err != nil {
			t.Fatalf("trial %d indexed: %v\ndoc: %s", trial, err, enc)
		}
		idx.Release()
		for qi, expr := range exprs {
			var want []string
			if _, err := MustCompile(expr).Run(enc, func(m Match) {
				want = append(want, string(m.Value))
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[qi], want) {
				t.Fatalf("trial %d %q: set %q solo %q\ndoc: %s", trial, expr, got[qi], want, enc)
			}
			if !reflect.DeepEqual(gotIdx[qi], want) {
				t.Fatalf("trial %d %q: indexed set %q solo %q\ndoc: %s", trial, expr, gotIdx[qi], want, enc)
			}
		}
	}
}

// TestQuerySetG4PerMember checks that members sharing one object level
// each take their own G4 object-end skip: the set's G4 charge is the sum
// of the members' solo charges, and every member skips the tail after
// its attribute.
func TestQuerySetG4PerMember(t *testing.T) {
	exprs := []string{"$.a", "$.b", "$.c"}
	data := []byte(`{"a": 1, "b": 2, "c": 3, "pad": [` + strings.Repeat(`{"x": [1, 2, 3]}, `, 200) + `0]}`)
	st, err := MustCompileSet(exprs...).Run(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	var g4 int64
	for _, e := range exprs {
		solo, err := MustCompile(e).Run(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		if solo.SkippedBytes[3] == 0 {
			t.Fatalf("%s: no G4 skip on its own", e)
		}
		g4 += solo.SkippedBytes[3]
	}
	if st.SkippedBytes[3] != g4 {
		t.Fatalf("set G4 = %d bytes, members alone = %d", st.SkippedBytes[3], g4)
	}
	if got := st.GroupRatio(3); got < 0.9 {
		t.Fatalf("set G4 ratio = %.3f; every member should skip the pad", got)
	}
}

// TestQuerySetMemberStatsParity pins the per-member byte identity: over
// raw bytes and over an index, a set's Stats are the sum of its
// members' solo Stats — matches, input bytes and every group charge —
// so InputBytes is N × len and input == scanned + Σ ff holds in total.
// A singleton set is exactly its one query.
func TestQuerySetMemberStatsParity(t *testing.T) {
	cases := []struct{ query, data string }{
		{"$.a.b", `{"a": {"b": 1}, "c": {"b": 2}}`},
		{"$.a.b", `{"x": [1, 2, 3], "a": {"q": "s", "b": {"deep": [true]}}}`},
		{"$.a[*].b", `{"a": [{"b": 1}, {"c": 2}, {"b": [3, 4]}], "z": "tail"}`},
		{"$[1:3]", `[10, {"a": 1}, [2, 3], 40, 50]`},
		{"$.*", `{"a": 1, "b": {"c": 2}, "d": [3]}`},
		{"$.a[2]", `{"a": [0, 1, {"v": "hit"}, 3]}`},
		{"$.items[*].name", `{"items": [{"id": 1, "name": "x"}, {"id": 2, "name": "y"}], "n": 2}`},
		{"$.a.b", `{"a": "not an object", "b": 7}`},
		{"$[*].a", `[{"a": 1}, "skip", {"b": 2}, {"a": [3]}]`},
	}
	extra := []string{"$..b", "$[?@.a]", "$['a','b']", "$", "$[-1]"}
	for _, tc := range cases {
		t.Run(tc.query, func(t *testing.T) {
			data := []byte(tc.data)
			ix := BuildIndex(data)
			defer ix.Release()
			for _, exprs := range [][]string{{tc.query}, append([]string{tc.query}, extra...)} {
				var want Stats
				var wantSpans []string
				for qi, e := range exprs {
					q := MustCompile(e)
					st, err := q.Run(data, func(m Match) {
						wantSpans = append(wantSpans, fmt.Sprintf("%d:%d-%d", qi, m.Start, m.End))
					})
					if err != nil {
						t.Fatalf("%s: %v", e, err)
					}
					want.merge(st)
				}
				qs := MustCompileSet(exprs...)
				for _, indexed := range []bool{false, true} {
					var spans []string
					fn := func(m SetMatch) { spans = append(spans, fmt.Sprintf("%d:%d-%d", m.Query, m.Start, m.End)) }
					var got Stats
					var err error
					if indexed {
						got, err = qs.RunIndexed(ix, fn)
					} else {
						got, err = qs.Run(data, fn)
					}
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%v indexed=%v", exprs, indexed)
					if !reflect.DeepEqual(spans, wantSpans) {
						t.Errorf("%s: spans %v, members alone %v", label, spans, wantSpans)
					}
					if got.Matches != want.Matches || got.InputBytes != want.InputBytes ||
						got.SkippedBytes != want.SkippedBytes {
						t.Errorf("%s: stats %+v, members alone %+v", label, got, want)
					}
					if got.InputBytes != int64(len(exprs)*len(data)) {
						t.Errorf("%s: InputBytes = %d, want %d × %d", label, got.InputBytes, len(exprs), len(data))
					}
					var ff int64
					for _, v := range got.SkippedBytes {
						ff += v
					}
					if got.ScannedBytes()+ff != got.InputBytes {
						t.Errorf("%s: scanned %d + ff %d != input %d", label, got.ScannedBytes(), ff, got.InputBytes)
					}
				}
			}
		})
	}
}

// TestQuerySetIndexedAllocs pins the allocation cost of an indexed set
// run — the shape of a hot catalog read — to a small constant per
// member, independent of how many containers the document holds.
func TestQuerySetIndexedAllocs(t *testing.T) {
	data, err := gen.Generate("tt", 512<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	var exprs []string
	for _, q := range queries.ForDataset("tt") {
		exprs = append(exprs, q.Large)
	}
	qs := MustCompileSet(exprs...)
	ix := BuildIndex(data)
	defer ix.Release()
	var sink CountSink
	run := func() {
		if _, err := qs.RunIndexedSink(ix, &sink); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if sink.Spans < 1000 {
		t.Fatalf("only %d matches: the document should hold many containers", sink.Spans)
	}
	const perMember = 2
	if allocs := testing.AllocsPerRun(20, run); allocs > float64(perMember*qs.Len()) {
		t.Fatalf("RunIndexedSink: %.1f allocs/run, want ≤ %d per member (%d members)", allocs, perMember, qs.Len())
	}
}
