package jsonski

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
)

func persistDoc() []byte {
	return []byte(`{"store":{"book":[` +
		`{"title":"A","price":8,"tags":["x","y"]},` +
		`{"title":"B","price":12,"tags":[]},` +
		`{"title":"C,]}","price":31}` +
		`]},"expensive":10}`)
}

// TestSaveLoadIndexQueryEquivalence proves a query over a loaded
// (mapped) index produces exactly the matches of a direct run and of a
// freshly built index.
func TestSaveLoadIndexQueryEquivalence(t *testing.T) {
	data := persistDoc()
	path := filepath.Join(t.TempDir(), "doc"+IndexExt)
	built := BuildIndex(data)
	defer built.Release()
	if err := SaveIndex(path, built, nil); err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	loaded, spans, err := LoadIndex(path)
	if err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	defer loaded.Release()
	if len(spans) != 0 {
		t.Fatalf("unexpected spans: %v", spans)
	}
	if !loaded.Mapped() {
		t.Fatal("loaded index should be Mapped")
	}
	if built.Mapped() {
		t.Fatal("built index should not be Mapped")
	}

	for _, expr := range []string{
		"$.store.book[*].title", "$.store.book[1:3].price", "$..price", "$.expensive",
	} {
		q := MustCompile(expr)
		collect := func(run func(fn func(Match)) (Stats, error)) []string {
			var got []string
			if _, err := run(func(m Match) { got = append(got, string(m.Value)) }); err != nil {
				t.Fatalf("%s: %v", expr, err)
			}
			return got
		}
		direct := collect(func(fn func(Match)) (Stats, error) { return q.Run(context.Background(), Bytes(data), FuncSink(fn)) })
		mem := collect(func(fn func(Match)) (Stats, error) { return q.Run(context.Background(), Indexed(built), FuncSink(fn)) })
		mapped := collect(func(fn func(Match)) (Stats, error) { return q.Run(context.Background(), Indexed(loaded), FuncSink(fn)) })
		if len(direct) == 0 {
			t.Fatalf("%s: no matches", expr)
		}
		if fmt.Sprint(mem) != fmt.Sprint(direct) || fmt.Sprint(mapped) != fmt.Sprint(direct) {
			t.Fatalf("%s: direct=%v mem=%v mapped=%v", expr, direct, mem, mapped)
		}
	}
}

// TestRecordSpansAndWindow checks RecordSpans against the reader's
// record semantics and queries individual records through one-span
// Windows input on a loaded corpus index.
func TestRecordSpansAndWindow(t *testing.T) {
	corpus := []byte("{\"v\":1}\n\n  {\"v\":2}  \r\n{\"v\":3}")
	spans := RecordSpans(corpus)
	if len(spans) != 3 {
		t.Fatalf("spans: %v", spans)
	}
	for i, want := range []string{`{"v":1}`, `{"v":2}`, `{"v":3}`} {
		if got := string(corpus[spans[i].Start:spans[i].End]); got != want {
			t.Fatalf("span %d: %q", i, got)
		}
	}

	path := filepath.Join(t.TempDir(), "corpus"+IndexExt)
	ix := BuildIndex(corpus)
	err := SaveIndex(path, ix, spans)
	ix.Release()
	if err != nil {
		t.Fatal(err)
	}
	loaded, lspans, err := LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Release()
	if len(lspans) != 3 {
		t.Fatalf("loaded spans: %v", lspans)
	}

	q := MustCompile("$.v")
	for i, sp := range lspans {
		var vals []string
		st, err := q.Run(context.Background(), Windows(loaded, []Span{{Start: int64(int(sp.Start)), End: int64(int(sp.End))}}), FuncSink(func(m Match) {
			vals = append(vals, string(m.Value))
		}))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want := fmt.Sprintf("%d", i+1)
		if len(vals) != 1 || vals[0] != want {
			t.Fatalf("record %d: got %v, want [%s]", i, vals, want)
		}
		if st.Matches != 1 {
			t.Fatalf("record %d stats: %+v", i, st)
		}
	}
}

// TestPublicCatalog smoke-tests the public wrapper: put, hit, restart
// warming, delete.
func TestPublicCatalog(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := persistDoc()
	if ix, _ := c.Get(data); ix != nil {
		t.Fatal("hit on empty catalog")
	}
	ix, _, err := c.Put(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix.Release()
	ix, _ = c.Get(data)
	if ix == nil || !ix.Mapped() {
		t.Fatal("expected mapped hit")
	}
	q := MustCompile("$.expensive")
	var got []byte
	if _, err := q.Run(context.Background(), Indexed(ix), FuncSink(func(m Match) { got = append([]byte(nil), m.Value...) })); err != nil {
		t.Fatal(err)
	}
	ix.Release()
	if !bytes.Equal(got, []byte("10")) {
		t.Fatalf("catalog-served query: %q", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Builds != 1 {
		t.Fatalf("stats: %+v", st)
	}
	c.Close()

	c2, err := OpenCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.Opens != 1 || st.Entries != 1 {
		t.Fatalf("warm stats: %+v", st)
	}
	if !c2.Contains(ContentHash(data)) {
		t.Fatal("warm catalog lost the entry")
	}
	if !c2.Delete(ContentHash(data)) {
		t.Fatal("delete failed")
	}
	if c2.Len() != 0 {
		t.Fatal("entry survives delete")
	}
}
