package jsonski

import (
	"io"

	"jsonski/internal/core"
)

// Sink consumes the spans a run selects. It is the output path of Run
// for every input and worker count, and the implementations below cover
// the common shapes — callbacks (FuncSink), buffered collection
// (BufferSink), zero-copy streaming to a writer (StreamSink), counting
// (CountSink), and fan-out for crosschecks (Tee).
//
// Begin is called once per record before any of its spans, binding the
// record's buffer; Span receives each match as a half-open byte range
// of that buffer, whitespace-trimmed, in document order. A Span error
// stops further delivery — the engine still finishes the record (its
// statistics stay exact), and the error is returned from the entry
// point unless the engine itself failed. Flush is called once at the
// end of the run, even after an error.
//
// Sinks are driven by one run at a time; none of the implementations
// here is safe for concurrent use.
type Sink interface {
	// Begin starts record `record`, whose bytes are data. Spans that
	// follow index into data.
	Begin(record int, data []byte)
	// Span delivers one match: data[start:end] of the current record.
	Span(start, end int) error
	// Flush marks the end of the run, flushing any buffered output.
	Flush() error
}

// BufferSink collects every span as a copied value — the buffered
// output mode (All's behavior as a Sink).
type BufferSink struct {
	// Values holds one copy per match, in document order across all
	// records of the run.
	Values [][]byte

	data []byte
}

// Begin implements Sink.
func (b *BufferSink) Begin(_ int, data []byte) { b.data = data }

// Span implements Sink, copying the value out of the record buffer.
func (b *BufferSink) Span(start, end int) error {
	b.Values = append(b.Values, append([]byte(nil), b.data[start:end]...))
	return nil
}

// Flush implements Sink.
func (b *BufferSink) Flush() error { return nil }

// Reset drops collected values, retaining capacity for reuse.
func (b *BufferSink) Reset() { b.Values = b.Values[:0] }

// StreamSink writes every span straight from the input buffer to W —
// no per-match allocation or copy — framing each one with Prefix and
// Suffix. It is the zero-copy output mode behind the server's NDJSON
// responses and the jsonski CLI.
//
// W is typically buffered (a *bufio.Writer); Flush forwards to W when
// it implements `Flush() error`.
type StreamSink struct {
	// W receives Prefix, the raw span bytes, then Suffix per match.
	W io.Writer
	// Prefix and Suffix frame each span; NewStreamSink sets Suffix to
	// a newline and leaves Prefix empty.
	Prefix, Suffix []byte
	// Spans counts the spans written so far.
	Spans int64

	data []byte
}

// NewStreamSink returns a StreamSink writing newline-terminated spans
// to w.
func NewStreamSink(w io.Writer) *StreamSink {
	return &StreamSink{W: w, Suffix: []byte{'\n'}}
}

// Begin implements Sink.
func (s *StreamSink) Begin(_ int, data []byte) { s.data = data }

// Span implements Sink, writing the framed value without copying it.
func (s *StreamSink) Span(start, end int) error {
	if len(s.Prefix) > 0 {
		if _, err := s.W.Write(s.Prefix); err != nil {
			return err
		}
	}
	if _, err := s.W.Write(s.data[start:end]); err != nil {
		return err
	}
	if len(s.Suffix) > 0 {
		if _, err := s.W.Write(s.Suffix); err != nil {
			return err
		}
	}
	s.Spans++
	return nil
}

// Flush implements Sink, flushing W when it is flushable.
func (s *StreamSink) Flush() error {
	if f, ok := s.W.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// CountSink counts spans and discards them — the output mode of
// -count/-stats style runs. (Run with a nil sink counts without any
// sink dispatch at all; CountSink exists for composition, e.g. inside a
// Tee.)
type CountSink struct {
	// Spans is the number of spans delivered.
	Spans int64
}

// Begin implements Sink.
func (c *CountSink) Begin(int, []byte) {}

// Span implements Sink.
func (c *CountSink) Span(int, int) error { c.Spans++; return nil }

// Flush implements Sink.
func (c *CountSink) Flush() error { return nil }

// Tee fans every sink call out to all of sinks in order, used by
// crosscheck tests to drive two output modes from one evaluation. Span
// and Flush call every sink even after one errors; the first error is
// reported.
func Tee(sinks ...Sink) Sink { return teeSink(sinks) }

type teeSink []Sink

func (t teeSink) Begin(record int, data []byte) {
	for _, s := range t {
		s.Begin(record, data)
	}
}

func (t teeSink) Span(start, end int) error {
	var first error
	for _, s := range t {
		if err := s.Span(start, end); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (t teeSink) Flush() error {
	var first error
	for _, s := range t {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FuncSink adapts a callback to a Sink: fn receives every match as a
// Match, with Record set to the record index and, in a QuerySet run,
// Query set to the matching member's position in the set. Match.Value
// aliases the record buffer, which for Reader input is valid only
// during the call. A nil fn gives a nil Sink, which only counts.
func FuncSink(fn func(Match)) Sink {
	if fn == nil {
		return nil
	}
	return &funcSink{fn: fn}
}

type funcSink struct {
	fn            func(Match)
	data          []byte
	record, query int
}

func (f *funcSink) Begin(record int, data []byte) { f.record, f.query, f.data = record, 0, data }

func (f *funcSink) Span(start, end int) error {
	f.fn(Match{Start: start, End: end, Value: f.data[start:end], Record: f.record, Query: f.query})
	return nil
}

func (f *funcSink) Flush() error { return nil }

func (f *funcSink) setQuery(i int) { f.query = i }

// sinkRun latches a sink onto an engine run: it adapts Sink.Span to the
// engine's span callback, records the sink's first error without
// aborting the engine mid-record, and settles Flush/error precedence at
// the end. A nil *sinkRun stands for a nil sink: it only counts, and the
// engine skips emit dispatch entirely.
type sinkRun struct {
	sink Sink
	tag  interface{ setQuery(int) } // sink, when it tags matches with the member (FuncSink)
	err  error
	emit core.EmitFunc
}

func newSinkRun(sink Sink) *sinkRun {
	if sink == nil {
		return nil
	}
	sr := &sinkRun{sink: sink}
	sr.tag, _ = sink.(interface{ setQuery(int) })
	sr.emit = sr.deliver
	return sr
}

// begin starts record `record`, whose bytes are data.
func (sr *sinkRun) begin(record int, data []byte) {
	if sr != nil {
		sr.sink.Begin(record, data)
	}
}

// member announces set member i and returns the engine emit callback.
func (sr *sinkRun) member(i int) core.EmitFunc {
	if sr == nil {
		return nil
	}
	if sr.tag != nil {
		sr.tag.setQuery(i)
	}
	return sr.emit
}

func (sr *sinkRun) deliver(start, end int) {
	if sr.err != nil {
		return // sink already failed: drop further spans, let the run finish
	}
	if err := sr.sink.Span(start, end); err != nil {
		sr.err = err
	}
}

// failed reports whether the sink has returned an error.
func (sr *sinkRun) failed() bool { return sr != nil && sr.err != nil }

// finish flushes the sink and merges errors: the engine's error wins
// (it describes the input), then the sink's first write error, then
// Flush's.
func (sr *sinkRun) finish(engineErr error) error {
	if sr == nil {
		return engineErr
	}
	err := engineErr
	if err == nil {
		err = sr.err
	}
	if ferr := sr.sink.Flush(); err == nil {
		err = ferr
	}
	return err
}
