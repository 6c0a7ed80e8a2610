package jsonski

import (
	"context"

	"jsonski/internal/jsonpath"
)

// QuerySet evaluates several compiled path queries over the same input.
// It is a list of compiled members: Run runs each member, in set order,
// as its own fast-forwarding pass over every record with that member's
// pooled engine (DFA, NFA, or segmented), so no member gives up a skip
// because another member still needs the bytes. Matches of one member
// arrive in document order; members do not interleave.
//
// Raw-byte inputs make one lazy pass per member. To pay for
// classification once across all members, build the index with
// BuildIndex and run over Indexed or Windows input: every member then
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

// CompileSet parses and compiles all expressions. Match.Query, as a
// FuncSink reports it, is the position in exprs.
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

// Run evaluates every query of the set over in: per record, member by
// member in set order, each member's matches in document order, all
// within the record's one Begin. A FuncSink sees each match's member
// position in Match.Query; other sinks receive the members' matches as
// one stream (e.g. NDJSON out). Everything else — sink, options, errors,
// cancellation — is as for Query.Run; with Explain the members' movements
// share one trace, in set order.
func (qs *QuerySet) Run(ctx context.Context, in Input, sink Sink, opts ...Option) (Stats, error) {
	return run(ctx, qs.members, in, sink, opts)
}

// Counts returns the number of matches in data per query.
func (qs *QuerySet) Counts(data []byte) ([]int64, error) {
	counts := make([]int64, len(qs.exprs))
	_, err := qs.Run(context.Background(), Bytes(data), FuncSink(func(m Match) { counts[m.Query]++ }))
	return counts, err
}

// RunIndexedSink is Run over Indexed(ix).
//
// Deprecated: use Run.
func (qs *QuerySet) RunIndexedSink(ix *Index, sink Sink) (Stats, error) {
	return qs.Run(context.Background(), Indexed(ix), sink)
}
