// Package jsonski is a streaming JSONPath evaluator with bit-parallel
// fast-forwarding, reproducing "JSONSki: Streaming Semi-structured Data
// with Bit-Parallel Fast-Forwarding" (Jiang & Zhao, ASPLOS 2022).
//
// A compiled Query scans a JSON buffer in a single forward pass, emitting
// every value the path selects, without building a parse tree or index.
// Substructures that cannot affect the query — wrong-typed attributes,
// unmatched values, object remainders after a match, out-of-range array
// elements — are fast-forwarded using word-sized structural bitmaps, so
// on typical path queries well over 95% of the input is never tokenized.
//
// Supported path syntax (RFC 9535): $ (root), .name and ['name']
// (child), [n] (index, negatives count from the end), [m:n:s] (slices
// with optional stride, backward with negative stride), [*] and .*
// (wildcards), [?expr] (filters: existence tests, comparisons, &&/||/!),
// [a,b,...] (unions), and ..name / ..* (descendant — the paper's stated
// future work). Descendant paths are evaluated by a set-of-states NFA
// engine: as the paper observes (§5.1) a descendant's level is unknown,
// so type-based fast-forwarding does not apply below it; dead subtrees
// are still skipped bit-parallel. Filter steps stay on the streaming
// engines: each candidate value is captured with one fast-forward
// movement and decided by a span probe. Selectors whose RFC semantics
// need the container length or per-selector output order (unions,
// negative indexes/bounds, backward slices) run segmented — a streamable
// prefix fast-forwards as usual and only the selected spans are handed
// to a reference evaluator for the deferred tail.
//
//	q := jsonski.MustCompile("$.place.name")
//	stats, err := q.Run(ctx, jsonski.Bytes(data), jsonski.FuncSink(func(m jsonski.Match) {
//	    fmt.Printf("%s\n", m.Value)
//	}))
//
// Run is the one way to evaluate a query. Its Input is one record
// (Bytes, Indexed) or a record sequence (Records, Windows, Reader); its
// Sink receives the matches (FuncSink, BufferSink, StreamSink, or nil to
// only count); its Options are Workers and Explain.
package jsonski

import (
	"context"
	"sync"

	"jsonski/internal/automaton"
	"jsonski/internal/core"
	"jsonski/internal/jsonpath"
	"jsonski/internal/stream"
	"jsonski/internal/telemetry"
)

// Match is one value selected by the query. Value aliases the input
// buffer — copy it if it must outlive the buffer.
type Match struct {
	// Start and End delimit the match in the input buffer.
	Start, End int
	// Value is input[Start:End]: the matched JSON value, whitespace
	// trimmed (strings keep their quotes).
	Value []byte
	// Record is the index of the containing record in a record-sequence
	// Input, 0 for a single record.
	Record int
	// Query is the position of the matching member in a QuerySet, 0 for
	// a single Query.
	Query int
}

// Stats reports how a run spent its input, mirroring the paper's
// fast-forward accounting (Table 6).
type Stats struct {
	// Matches is the number of values emitted.
	Matches int64
	// InputBytes is the total input length processed.
	InputBytes int64
	// SkippedBytes counts fast-forwarded bytes per group G1..G5.
	SkippedBytes [5]int64

	trace   *Trace
	latency *LatencySnapshot
}

// Trace returns the bounded fast-forward event log recorded by a run
// with the Explain option, or nil for ordinary runs.
func (s Stats) Trace() *Trace { return s.trace }

// Latency returns the per-record evaluation-latency distribution of a
// record-sequence run (Records, Windows, Reader), or nil for a
// single-record run, which has exactly one latency — the call's own
// duration.
func (s Stats) Latency() *LatencySnapshot { return s.latency }

// FastForwardRatio is the fraction of input bytes that were
// fast-forwarded over rather than parsed (paper Table 6, "Overall").
func (s Stats) FastForwardRatio() float64 {
	if s.InputBytes == 0 {
		return 0
	}
	var t int64
	for _, v := range s.SkippedBytes {
		t += v
	}
	return float64(t) / float64(s.InputBytes)
}

// GroupRatio is the fraction of input bytes fast-forwarded by group g
// (0-based: 0 ↔ G1 ... 4 ↔ G5).
func (s Stats) GroupRatio(g int) float64 {
	if s.InputBytes == 0 || g < 0 || g >= len(s.SkippedBytes) {
		return 0
	}
	return float64(s.SkippedBytes[g]) / float64(s.InputBytes)
}

// ScannedBytes is the complement of the fast-forward accounting: the
// bytes the engine actually examined (input minus every group's skips).
// InputBytes == ScannedBytes + sum(SkippedBytes) — each input byte is
// either charged to a Table 1 group or was scanned. Clamped at zero.
func (s Stats) ScannedBytes() int64 {
	n := s.InputBytes
	for _, v := range s.SkippedBytes {
		n -= v
	}
	if n < 0 {
		return 0
	}
	return n
}

// add folds one engine run's counters into s.
func (s *Stats) add(st core.Stats) {
	s.merge(Stats{Matches: st.Matches, InputBytes: st.InputBytes, SkippedBytes: st.Skipped.SkippedBytes})
}

// merge folds another run's counters into s.
func (s *Stats) merge(o Stats) {
	s.Matches += o.Matches
	s.InputBytes += o.InputBytes
	for g := range s.SkippedBytes {
		s.SkippedBytes[g] += o.SkippedBytes[g]
	}
}

// runner is the common face of the evaluation engines: the DFA engine
// with full fast-forwarding for linear paths, and the NFA engine for
// paths containing the descendant operator.
type runner interface {
	Run(data []byte, emit core.EmitFunc) (core.Stats, error)
	RunIndexedWindow(ix *stream.Index, lo, hi int, emit core.EmitFunc) (core.Stats, error)
	SetTrace(t *telemetry.Trace)
}

// Query is a compiled JSONPath expression. It is immutable and safe for
// concurrent use; each concurrent evaluation draws a private engine from
// an internal pool.
type Query struct {
	path *jsonpath.Path
	pool sync.Pool
	self [1]*Query // {q}: Run evaluates a Query as a one-member set
}

// Compile parses and compiles a JSONPath expression.
func Compile(expr string) (*Query, error) {
	p, err := jsonpath.Parse(expr)
	if err != nil {
		return nil, err
	}
	q := &Query{path: p}
	q.self[0] = q
	switch {
	case p.SplitPoint() >= 0:
		// Deferred selectors (unions, negative indexes/bounds, backward
		// slices, descendant+filter mixes): streamable prefix through the
		// DFA/NFA engine, deferred tail through the reference evaluator.
		if _, err := core.NewSegmentedEngine(p); err != nil {
			return nil, err
		}
		q.pool.New = func() any {
			e, _ := core.NewSegmentedEngine(p)
			return runner(e)
		}
		return q, nil
	case p.HasDescendant():
		// Validate once so pool.New cannot fail later.
		if _, err := core.NewNFAEngine(p); err != nil {
			return nil, err
		}
		q.pool.New = func() any {
			e, _ := core.NewNFAEngine(p)
			return runner(e)
		}
		return q, nil
	}
	aut := automaton.New(p)
	q.pool.New = func() any { return runner(core.NewEngine(aut)) }
	return q, nil
}

// MustCompile is Compile for statically known-good expressions; it panics
// on error.
func MustCompile(expr string) *Query {
	q, err := Compile(expr)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the source expression.
func (q *Query) String() string { return q.path.String() }

// Run evaluates the query over in, delivering every match to sink:
// Begin once per record, then the record's matches in document order,
// then one Flush at the end of the run. sink may be nil to only count
// matches. A sink error stops delivery but not the current record's
// evaluation (its Stats stay exact); it is returned unless the engine
// itself failed.
//
// On a record sequence an engine error is wrapped with the index of the
// offending record, and the first engine error, sink error or read
// error stops the run. ctx is checked between records; a cancelled run
// returns ctx.Err().
func (q *Query) Run(ctx context.Context, in Input, sink Sink, opts ...Option) (Stats, error) {
	return run(ctx, q.self[:], in, sink, opts)
}

// Count returns the number of matches in data.
func (q *Query) Count(data []byte) (int64, error) {
	st, err := q.Run(context.Background(), Bytes(data), nil)
	return st.Matches, err
}

// All collects every match in data into a slice of copied values.
// Convenient for small result sets; for large ones prefer Run with a
// StreamSink or a FuncSink.
func (q *Query) All(data []byte) ([][]byte, error) {
	var sink BufferSink
	_, err := q.Run(context.Background(), Bytes(data), &sink)
	return sink.Values, err
}

// RunSink is Run over Bytes(data).
//
// Deprecated: use Run.
func (q *Query) RunSink(data []byte, sink Sink) (Stats, error) {
	return q.Run(context.Background(), Bytes(data), sink)
}

// RunIndexedSink is Run over Indexed(ix).
//
// Deprecated: use Run.
func (q *Query) RunIndexedSink(ix *Index, sink Sink) (Stats, error) {
	return q.Run(context.Background(), Indexed(ix), sink)
}

// RunRecordsSink is Run over Records(records).
//
// Deprecated: use Run.
func (q *Query) RunRecordsSink(records [][]byte, sink Sink) (Stats, error) {
	return q.Run(context.Background(), Records(records), sink)
}
