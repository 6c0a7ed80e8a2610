package jsonski

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// TestMalformedArrayTerminates pins the driver's array progress guard.
// On this 15-byte input an array element lookup used to return the same
// element forever, so every entry point spun instead of failing. Each
// row of the input × option matrix runs under a deadline and must come
// back with an error.
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
				done := make(chan error, 1)
				go func() {
					_, err := row.Eval(q, input)
					done <- err
				}()
				select {
				case err := <-done:
					if err == nil {
						t.Fatalf("%s on %q: want an error for malformed input", row.Name, input)
					}
				case <-time.After(3 * time.Second):
					t.Fatalf("%s on %q: no result after 3s (engine did not terminate)", row.Name, input)
				}
			})
		}
	}
}
