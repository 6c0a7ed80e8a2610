package jsonski_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"jsonski"
)

// Both types evaluate through the same Run signature.
var _ = []func(context.Context, jsonski.Input, jsonski.Sink, ...jsonski.Option) (jsonski.Stats, error){
	(*jsonski.Query)(nil).Run,
	(*jsonski.QuerySet)(nil).Run,
}

// TestPublicSurface pins one evaluation method per type: Run. The other
// exported methods of *Query and *QuerySet are accessors, the
// Count/All/Counts helpers over Run, and the deprecated wrappers that
// the benchmark module still calls. Adding an evaluation method means
// editing these lists on purpose.
func TestPublicSurface(t *testing.T) {
	for _, c := range []struct {
		typ   reflect.Type
		allow []string
	}{
		{reflect.TypeOf(&jsonski.Query{}), []string{"All", "Count", "Run", "String",
			"RunIndexedSink", "RunRecordsSink", "RunSink"}},
		{reflect.TypeOf(&jsonski.QuerySet{}), []string{"Counts", "Expr", "Len", "Run",
			"RunIndexedSink"}},
	} {
		var got []string
		for i := 0; i < c.typ.NumMethod(); i++ {
			got = append(got, c.typ.Method(i).Name) // sorted by name
		}
		sort.Strings(c.allow)
		if !reflect.DeepEqual(got, c.allow) {
			t.Errorf("%v methods = %v, want %v", c.typ, got, c.allow)
		}
	}
}
