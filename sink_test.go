package jsonski_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"jsonski"
)

const sinkDoc = `{"items": [{"name": "a", "n": 1}, {"name": "b", "n": 2}, {"name": "c", "n": 3}], "tail": "x"}`

// TestSinkModesAgree drives all four output modes from one document and
// requires them to agree: buffered values, the streamed rendering, the
// count, and a Tee of all three at once.
func TestSinkModesAgree(t *testing.T) {
	q := jsonski.MustCompile("$.items[*].name")
	data := []byte(sinkDoc)

	var buffered jsonski.BufferSink
	if _, err := q.Run(context.Background(), jsonski.Bytes(data), &buffered); err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte(`"a"`), []byte(`"b"`), []byte(`"c"`)}
	if len(buffered.Values) != len(want) {
		t.Fatalf("buffered: got %q", buffered.Values)
	}
	for i, v := range buffered.Values {
		if !bytes.Equal(v, want[i]) {
			t.Fatalf("buffered[%d] = %q, want %q", i, v, want[i])
		}
	}

	var streamed bytes.Buffer
	stream := jsonski.NewStreamSink(&streamed)
	if _, err := q.Run(context.Background(), jsonski.Bytes(data), stream); err != nil {
		t.Fatal(err)
	}
	if got, want := streamed.String(), "\"a\"\n\"b\"\n\"c\"\n"; got != want {
		t.Fatalf("streamed = %q, want %q", got, want)
	}
	if stream.Spans != 3 {
		t.Fatalf("stream.Spans = %d", stream.Spans)
	}

	var count jsonski.CountSink
	var tb jsonski.BufferSink
	var ts bytes.Buffer
	st, err := q.Run(context.Background(), jsonski.Bytes(data), jsonski.Tee(&tb, jsonski.NewStreamSink(&ts), &count))
	if err != nil {
		t.Fatal(err)
	}
	if count.Spans != 3 || st.Matches != 3 {
		t.Fatalf("tee count %d, stats %d", count.Spans, st.Matches)
	}
	if !bytes.Equal(ts.Bytes(), streamed.Bytes()) {
		t.Fatalf("teed stream %q, want %q", ts.Bytes(), streamed.Bytes())
	}
	if len(tb.Values) != 3 {
		t.Fatalf("teed buffer: %q", tb.Values)
	}
}

// TestStreamSinkFraming checks Prefix/Suffix wrapping — the server's
// NDJSON line shape — and the flush-through to a buffered writer.
func TestStreamSinkFraming(t *testing.T) {
	q := jsonski.MustCompile("$.items[*].n")
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	sink := &jsonski.StreamSink{
		W:      bw,
		Prefix: []byte(`{"value":`),
		Suffix: []byte("}\n"),
	}
	if _, err := q.Run(context.Background(), jsonski.Bytes([]byte(sinkDoc)), sink); err != nil {
		t.Fatal(err)
	}
	// Run's end-of-run Flush must have drained the bufio.Writer.
	want := `{"value":1}` + "\n" + `{"value":2}` + "\n" + `{"value":3}` + "\n"
	if out.String() != want {
		t.Fatalf("got %q, want %q", out.String(), want)
	}
}

// failAfterWriter errors on the nth write, exercising the sink error
// path mid-run.
type failAfterWriter struct {
	n    int
	errs error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("sink: disk full")
	}
	w.n--
	return len(p), nil
}

// TestStreamSinkWriteError checks the error contract: a failing writer
// surfaces its error from Run, the engine still finishes the record
// (Stats stay exact), and delivery stops after the first failure.
func TestStreamSinkWriteError(t *testing.T) {
	q := jsonski.MustCompile("$.items[*].name")
	w := &failAfterWriter{n: 2} // value+newline of match 1, then fail
	sink := jsonski.NewStreamSink(w)
	st, err := q.Run(context.Background(), jsonski.Bytes([]byte(sinkDoc)), sink)
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v, want disk full", err)
	}
	if st.Matches != 3 {
		t.Fatalf("engine should finish the record: Matches = %d", st.Matches)
	}
	if sink.Spans != 1 {
		t.Fatalf("delivery should stop at first failure: Spans = %d", sink.Spans)
	}
}

// TestEngineErrorWinsOverSinkError: when both the input and the sink
// fail, the engine's error (describing the malformed input) is the one
// reported.
func TestEngineErrorWinsOverSinkError(t *testing.T) {
	q := jsonski.MustCompile("$.items[*].name")
	malformed := []byte(`{"items": [{"name": "a"}, {"name": `)
	sink := jsonski.NewStreamSink(&failAfterWriter{n: 0})
	_, err := q.Run(context.Background(), jsonski.Bytes(malformed), sink)
	if err == nil || strings.Contains(err.Error(), "disk full") {
		t.Fatalf("engine error should win, got %v", err)
	}
}

// TestRunRecordsSink checks per-record Begin numbering and that a sink
// failure aborts the remaining records.
func TestRunRecordsSink(t *testing.T) {
	q := jsonski.MustCompile("$.n")
	records := [][]byte{
		[]byte(`{"n": 1}`),
		[]byte(`{"n": 2}`),
		[]byte(`{"n": 3}`),
	}
	var out bytes.Buffer
	st, err := q.Run(context.Background(), jsonski.Records(records), jsonski.NewStreamSink(&out))
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 3 || out.String() != "1\n2\n3\n" {
		t.Fatalf("matches %d out %q", st.Matches, out.String())
	}

	sink := jsonski.NewStreamSink(&failAfterWriter{n: 2})
	st, err = q.Run(context.Background(), jsonski.Records(records), sink)
	if err == nil {
		t.Fatal("want sink error")
	}
	// Record 0 streams fine; record 1's write fails; record 2 is never
	// evaluated because the destination is broken.
	if st.Matches != 2 {
		t.Fatalf("remaining records should be aborted: Matches = %d", st.Matches)
	}
}

// TestRunReaderSink checks the reader entry point end to end: NDJSON in,
// zero-copy NDJSON out.
func TestRunReaderSink(t *testing.T) {
	q := jsonski.MustCompile("$.v")
	var in bytes.Buffer
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&in, `{"i": %d, "v": "s%d"}`+"\n", i, i)
	}
	var out bytes.Buffer
	st, err := q.Run(t.Context(), jsonski.Reader(&in), jsonski.NewStreamSink(&out))
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 100 {
		t.Fatalf("matches = %d", st.Matches)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 100 || lines[0] != `"s0"` || lines[99] != `"s99"` {
		t.Fatalf("bad output: %d lines, first %q last %q", len(lines), lines[0], lines[len(lines)-1])
	}
}

// TestQuerySetRunSink checks the per-member set passes through the flat
// sink contract, against the attributed callback run.
func TestQuerySetRunSink(t *testing.T) {
	qs := jsonski.MustCompileSet("$.items[*].name", "$.tail")
	data := []byte(sinkDoc)

	var want []string
	if _, err := qs.Run(context.Background(), jsonski.Bytes(data), jsonski.FuncSink(func(m jsonski.Match) {
		want = append(want, string(m.Value))
	})); err != nil {
		t.Fatal(err)
	}

	var sink jsonski.BufferSink
	st, err := qs.Run(context.Background(), jsonski.Bytes(data), &sink)
	if err != nil {
		t.Fatal(err)
	}
	if int(st.Matches) != len(want) {
		t.Fatalf("matches %d want %d", st.Matches, len(want))
	}
	for i, v := range sink.Values {
		if string(v) != want[i] {
			t.Fatalf("sink[%d] = %q, want %q", i, v, want[i])
		}
	}

	ix := jsonski.BuildIndex(data)
	defer ix.Release()
	var indexed jsonski.BufferSink
	if _, err := qs.Run(context.Background(), jsonski.Indexed(ix), &indexed); err != nil {
		t.Fatal(err)
	}
	if len(indexed.Values) != len(want) {
		t.Fatalf("indexed sink: %q", indexed.Values)
	}
}

// TestRunIndexedSinkMatchesRunSink: Indexed input must render
// identically to Bytes input.
func TestRunIndexedSinkMatchesRunSink(t *testing.T) {
	q := jsonski.MustCompile("$.items[*]")
	data := []byte(sinkDoc)
	var plain, viaIndex bytes.Buffer
	if _, err := q.Run(context.Background(), jsonski.Bytes(data), jsonski.NewStreamSink(&plain)); err != nil {
		t.Fatal(err)
	}
	ix := jsonski.BuildIndex(data)
	defer ix.Release()
	if _, err := q.Run(context.Background(), jsonski.Indexed(ix), jsonski.NewStreamSink(&viaIndex)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), viaIndex.Bytes()) {
		t.Fatalf("indexed %q, plain %q", viaIndex.Bytes(), plain.Bytes())
	}
}

// TestBufferSinkReset: Reset drops values but keeps the slice for reuse.
func TestBufferSinkReset(t *testing.T) {
	q := jsonski.MustCompile("$.items[*].n")
	var sink jsonski.BufferSink
	if _, err := q.Run(context.Background(), jsonski.Bytes([]byte(sinkDoc)), &sink); err != nil {
		t.Fatal(err)
	}
	sink.Reset()
	if len(sink.Values) != 0 {
		t.Fatalf("after Reset: %q", sink.Values)
	}
	if _, err := q.Run(context.Background(), jsonski.Bytes([]byte(sinkDoc)), &sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Values) != 3 {
		t.Fatalf("after rerun: %q", sink.Values)
	}
}
