package jsonski

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"
)

// TestMalformedArrayTerminates pins the driver's array progress guard.
// On this 15-byte input an array element lookup used to return the same
// element forever, so every entry point below spun instead of failing.
// Each call runs under a deadline and must come back with an error.
func TestMalformedArrayTerminates(t *testing.T) {
	input := []byte(`{"":,"":[""""}`)
	exprs := []string{"$..b", "$..*", "$.*[*]", "$.*.*", "$.*[?@]"}
	type entry struct {
		name string
		run  func(q *Query) error
	}
	entries := []entry{
		{"Run", func(q *Query) error { _, err := q.Run(input, nil); return err }},
		{"RunSink", func(q *Query) error { _, err := q.RunSink(input, &CountSink{}); return err }},
		{"RunIndexed", func(q *Query) error { _, err := q.RunIndexed(BuildIndex(input), nil); return err }},
		{"RunRecords", func(q *Query) error { _, err := q.RunRecords([][]byte{input}, nil); return err }},
		{"RunReaderContext", func(q *Query) error {
			_, err := q.RunReaderContext(context.Background(), bytes.NewReader(input), nil)
			return err
		}},
		{"QuerySet", func(q *Query) error {
			qs, err := CompileSet("$..b", q.String())
			if err != nil {
				return fmt.Errorf("compile set: %w", err)
			}
			_, err = qs.Run(input, nil)
			return err
		}},
	}
	for _, expr := range exprs {
		q := MustCompile(expr)
		for _, e := range entries {
			t.Run(expr+"/"+e.name, func(t *testing.T) {
				done := make(chan error, 1)
				go func() { done <- e.run(q) }()
				select {
				case err := <-done:
					if err == nil {
						t.Fatalf("%s on %q: want an error for malformed input", e.name, input)
					}
				case <-time.After(3 * time.Second):
					t.Fatalf("%s on %q: no result after 3s (engine did not terminate)", e.name, input)
				}
			})
		}
	}
}
