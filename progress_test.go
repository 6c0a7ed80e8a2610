package jsonski

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// TestMalformedArrayTerminates pins the progress guards of the driver
// and of the on-demand Navigator iterators. On this 15-byte input an
// array element lookup used to return the same element forever, so
// every entry point spun instead of failing. Each row of the input ×
// option matrix, and each on-demand walk, runs under a deadline and
// must come back with an error.
func TestMalformedArrayTerminates(t *testing.T) {
	input := []byte(`{"":,"":[""""}`)
	exprs := []string{"$..b", "$..*", "$.*[*]", "$.*.*", "$.*[?@]"}
	// The matrix rows collect through a FuncSink; the named rows add the
	// count-only (nil sink), CountSink and two-member set paths.
	run := func(in func([]byte) Input, sink Sink) func(*Query, []byte) ([]string, error) {
		return func(q *Query, data []byte) ([]string, error) {
			_, err := q.Run(context.Background(), in(data), sink)
			return nil, err
		}
	}
	rows := append(RunRows(), []RunRow{
		{"Run", run(Bytes, nil)},
		{"RunSink", run(Bytes, &CountSink{})},
		{"RunIndexed", run(func(d []byte) Input { return Indexed(BuildIndex(d)) }, nil)},
		{"RunRecords", run(func(d []byte) Input { return Records([][]byte{d}) }, nil)},
		{"RunReaderContext", run(func(d []byte) Input { return Reader(bytes.NewReader(d)) }, nil)},
		{"QuerySet", func(q *Query, data []byte) ([]string, error) {
			qs := MustCompileSet("$..b", q.String())
			_, err := qs.Run(context.Background(), Bytes(data), nil)
			return nil, err
		}},
	}...)
	for _, expr := range exprs {
		q := MustCompile(expr)
		for _, row := range rows {
			t.Run(expr+"/"+row.Name, func(t *testing.T) {
				mustFailWithin(t, row.Name, input, func() error {
					_, err := row.Eval(q, input)
					return err
				})
			})
		}
	}

	// On-demand rows: walk every value with the Fields/Elements
	// iterators, the callbacks always asking for more. Fields→Elements
	// starts at the object itself; Elements→Fields wraps it in an array
	// so the outer iterator is Elements.
	opens := []struct {
		name string
		open func([]byte) (*Document, func())
	}{
		{"Open", func(d []byte) (*Document, func()) { return Open(d), func() {} }},
		{"OpenIndexed", func(d []byte) (*Document, func()) {
			ix := BuildIndex(d)
			return OpenIndexed(ix), ix.Release
		}},
	}
	nestings := []struct {
		name string
		data []byte
	}{
		{"Fields→Elements", input},
		{"Elements→Fields", append(append([]byte("["), input...), ']')},
	}
	for _, o := range opens {
		for _, nest := range nestings {
			t.Run(o.name+"/"+nest.name, func(t *testing.T) {
				mustFailWithin(t, o.name, nest.data, func() error {
					d, release := o.open(nest.data)
					defer release()
					return walkAll(d.Root())
				})
			})
		}
	}
}

// mustFailWithin runs eval under a 3 s deadline and fails the test unless
// it returns an error in time.
func mustFailWithin(t *testing.T, name string, input []byte, eval func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- eval() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("%s on %q: want an error for malformed input", name, input)
		}
	case <-time.After(3 * time.Second):
		t.Fatalf("%s on %q: no result after 3s (engine did not terminate)", name, input)
	}
}

// walkAll visits every value under v with the on-demand iterators,
// descending into each container child, and returns the first error.
func walkAll(v Value) error {
	var inner error
	visit := func(child Value) bool {
		if k := child.Kind(); k == KindObject || k == KindArray {
			inner = walkAll(child)
		}
		return inner == nil
	}
	var err error
	switch v.Kind() {
	case KindObject:
		err = v.Fields(func(_ []byte, child Value) bool { return visit(child) })
	case KindArray:
		err = v.Elements(func(_ int, child Value) bool { return visit(child) })
	default:
		return v.Err()
	}
	if err != nil {
		return err
	}
	return inner
}
