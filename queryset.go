package jsonski

import (
	"jsonski/internal/core"
	"jsonski/internal/jsonpath"
)

// QuerySet evaluates several compiled path queries over the same input.
// It is a list of compiled members: every entry point runs each member,
// in set order, as its own fast-forwarding pass with that member's
// pooled engine (DFA, NFA, or segmented), so no member gives up a skip
// because another member still needs the bytes. Matches of one member
// arrive in document order; members do not interleave.
//
// Raw-byte entry points make one lazy pass per member. To pay for
// classification once across all members, build the index with
// BuildIndex and use RunIndexed or RunIndexedSink: every member then
// borrows the same materialized masks.
//
// The Stats of a set run are the sum of its members' Stats, so
// InputBytes is the number of members times the input length, and
// InputBytes == ScannedBytes + Σ SkippedBytes holds per member and in
// total.
//
// A QuerySet is immutable and safe for concurrent use.
type QuerySet struct {
	exprs   []string
	members []*Query // members[i] compiles exprs[i]
}

// CompileSet parses and compiles all expressions. The query index passed
// to callbacks is the position in exprs.
func CompileSet(exprs ...string) (*QuerySet, error) {
	if len(exprs) == 0 {
		return nil, &jsonpath.ParseError{Msg: "empty query set"}
	}
	qs := &QuerySet{exprs: append([]string(nil), exprs...), members: make([]*Query, len(exprs))}
	for i, expr := range exprs {
		q, err := Compile(expr)
		if err != nil {
			return nil, err
		}
		qs.members[i] = q
	}
	return qs, nil
}

// MustCompileSet is CompileSet for statically known-good expressions.
func MustCompileSet(exprs ...string) *QuerySet {
	qs, err := CompileSet(exprs...)
	if err != nil {
		panic(err)
	}
	return qs
}

// Len returns the number of queries in the set.
func (qs *QuerySet) Len() int { return len(qs.exprs) }

// Expr returns the i-th query expression.
func (qs *QuerySet) Expr(i int) string { return qs.exprs[i] }

// SetMatch is one match produced by a QuerySet run.
type SetMatch struct {
	// Query is the index of the matching expression in the set.
	Query int
	Match
}

// runRecord evaluates every member over one record — data, or ix's
// buffer when ix is non-nil — in set order, each with its own pooled
// engine. emit yields member i's span callback; a nil emit, or a nil
// callback, only counts. It stops at the first member error.
func (qs *QuerySet) runRecord(data []byte, ix *Index, emit func(i int) core.EmitFunc) (Stats, error) {
	var out Stats
	for i, q := range qs.members {
		var fn core.EmitFunc
		if emit != nil {
			fn = emit(i)
		}
		e := q.pool.Get().(runner)
		var st core.Stats
		var err error
		if ix != nil {
			st, err = e.RunIndexed(ix.ix, fn)
		} else {
			st, err = e.Run(data, fn)
		}
		q.pool.Put(e)
		out.add(st)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// setEmit adapts a SetMatch callback for runRecord: member i's spans of
// record `record` (bytes data) reach fn tagged with the set position.
func setEmit(data []byte, record int, fn func(SetMatch)) func(int) core.EmitFunc {
	if fn == nil {
		return nil
	}
	return func(i int) core.EmitFunc {
		return func(s, en int) {
			fn(SetMatch{Query: i, Match: Match{Start: s, End: en, Value: data[s:en], Record: record}})
		}
	}
}

// Run evaluates all queries over one record, invoking fn for every match
// of every query: member by member in set order, each member's matches
// in document order. fn may be nil to only count matches.
func (qs *QuerySet) Run(data []byte, fn func(SetMatch)) (Stats, error) {
	return qs.runRecord(data, nil, setEmit(data, 0, fn))
}

// RunIndexed is Run over a prebuilt structural index of the buffer:
// every member borrows ix's materialized word masks, so classification
// is paid once for the whole set. The index must stay alive (not
// finally Released) for the duration of the call.
func (qs *QuerySet) RunIndexed(ix *Index, fn func(SetMatch)) (Stats, error) {
	return qs.runRecord(ix.Data(), ix, setEmit(ix.Data(), 0, fn))
}

// RunSink evaluates all queries over one record, delivering every match
// of every query to sink within one Begin/Flush. The Sink contract
// carries no query index — use Run with a callback when per-query
// attribution matters; RunSink suits output modes where the queries'
// results concatenate into one stream (e.g. NDJSON out). sink may be
// nil to only count matches.
func (qs *QuerySet) RunSink(data []byte, sink Sink) (Stats, error) {
	return qs.runSink(data, nil, sink)
}

// RunIndexedSink is RunSink over a prebuilt structural index of the
// buffer. The index must stay alive (not finally Released) for the
// duration of the call.
func (qs *QuerySet) RunIndexedSink(ix *Index, sink Sink) (Stats, error) {
	return qs.runSink(ix.Data(), ix, sink)
}

func (qs *QuerySet) runSink(data []byte, ix *Index, sink Sink) (Stats, error) {
	sr := newSinkRun(sink)
	var emit func(int) core.EmitFunc
	if fn := sr.bind(0, data); fn != nil {
		emit = func(int) core.EmitFunc { return fn }
	}
	out, err := qs.runRecord(data, ix, emit)
	return out, sr.finish(err)
}

// RunRecords evaluates all queries over a sequence of independent JSON
// records sequentially, invoking fn for every match of every query.
// SetMatch.Record carries the record index. Engine errors are wrapped
// with the index of the offending record.
func (qs *QuerySet) RunRecords(records [][]byte, fn func(SetMatch)) (Stats, error) {
	var out Stats
	for i, rec := range records {
		st, err := qs.runRecord(rec, nil, setEmit(rec, i, fn))
		out.merge(st)
		if err != nil {
			return out, wrapRecordErr(i, err)
		}
	}
	return out, nil
}

// Counts returns the number of matches per query.
func (qs *QuerySet) Counts(data []byte) ([]int64, error) {
	counts := make([]int64, len(qs.exprs))
	_, err := qs.Run(data, func(m SetMatch) { counts[m.Query]++ })
	return counts, err
}
