package jsonski

import (
	"bytes"
	"context"
	"fmt"
	"unicode"
)

// RunRow is one row of the input × option matrix through which the
// crosscheck, fuzz and termination tests drive the one evaluation entry
// point. It is exported so the external test package shares the rows.
type RunRow struct {
	Name string
	// Eval runs q over the single JSON document data and returns the
	// matched values, in order, as data's bytes at each match's offsets.
	Eval func(q *Query, data []byte) ([]string, error)
}

// RunRows builds the matrix: the single-record inputs (Bytes, Indexed)
// with and without Explain, and the record-sequence inputs (Windows with
// one span, Records with one record, Reader) at one and two workers,
// each through Query.Run and through a one-member QuerySet.Run.
func RunRows() []RunRow {
	type input struct {
		name string
		seq  bool
		// open returns the input holding data, the offset in data of
		// the record's first byte, and a release for any index.
		open func(data []byte) (in Input, base int, release func())
	}
	noop := func() {}
	inputs := []input{
		{"Bytes", false, func(d []byte) (Input, int, func()) { return Bytes(d), 0, noop }},
		{"Indexed", false, func(d []byte) (Input, int, func()) {
			ix := BuildIndex(d)
			return Indexed(ix), 0, ix.Release
		}},
		{"Windows", true, func(d []byte) (Input, int, func()) {
			ix := BuildIndex(d)
			return Windows(ix, []Span{{End: int64(len(d))}}), 0, ix.Release
		}},
		{"Records", true, func(d []byte) (Input, int, func()) { return Records([][]byte{d}), 0, noop }},
		// Reader splits records at newlines, which a JSON document holds
		// only as whitespace: blanking them keeps it one record. The
		// reader trims the line, so offsets start after the lead.
		{"Reader", true, func(d []byte) (Input, int, func()) {
			line := bytes.ReplaceAll(d, []byte("\n"), []byte(" "))
			return Reader(bytes.NewReader(line)), len(line) - len(bytes.TrimLeftFunc(line, unicode.IsSpace)), noop
		}},
	}
	type option struct {
		name string
		opt  Option
	}
	single := []option{{"", Option{}}, {"/Explain", Explain(0)}}
	sequence := []option{{"/Workers(1)", Workers(1)}, {"/Workers(2)", Workers(2)}}
	var rows []RunRow
	for _, in := range inputs {
		opts := single
		if in.seq {
			opts = sequence
		}
		for _, o := range opts {
			for _, set := range []bool{false, true} {
				name := "Query.Run/" + in.name + o.name
				if set {
					name = "QuerySet.Run/" + in.name + o.name
				}
				rows = append(rows, RunRow{name, func(q *Query, data []byte) ([]string, error) {
					input, base, release := in.open(data)
					defer release()
					var out []string
					var bad error
					sink := FuncSink(func(m Match) {
						if m.Record != 0 || m.Query != 0 {
							bad = fmt.Errorf("match tagged record %d, query %d; want 0, 0", m.Record, m.Query)
						}
						out = append(out, string(data[base+m.Start:base+m.End]))
					})
					var err error
					if set {
						var qs *QuerySet
						if qs, err = CompileSet(q.String()); err == nil {
							_, err = qs.Run(context.Background(), input, sink, o.opt)
						}
					} else {
						_, err = q.Run(context.Background(), input, sink, o.opt)
					}
					if err == nil {
						err = bad
					}
					return out, err
				}})
			}
		}
	}
	return rows
}
