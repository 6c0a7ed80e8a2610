package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strconv"

	"jsonski"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/gen"
	"jsonski/internal/jsonpath"
	"jsonski/internal/queries"
)

// filterQuery is the skip-plan filter the large workload adds to the
// twelve Table 5 queries (RFC 9535 filter over the wm dataset).
const filterQuery = "$.it[?@.salePrice < 80].itemId"

// largeQuery is one query of the large workload, bound to its dataset.
type largeQuery struct {
	id, dataset, expr string
}

func largeQueries() []largeQuery {
	var out []largeQuery
	for _, q := range queries.All {
		out = append(out, largeQuery{q.ID, q.Dataset, q.Large})
	}
	return append(out, largeQuery{"WMF", "wm", filterQuery})
}

// dataSeed derives the generator seed of one input from the run seed,
// so inputs differ across datasets and versions but repeat per seed.
func dataSeed(seed int64, dataset string, version int) int64 {
	for i, n := range gen.Names {
		if n == dataset {
			return seed*1_000 + int64(i)*10 + int64(version)
		}
	}
	panic("unknown dataset " + dataset)
}

func (r *report) logInput(name string, data []byte) {
	st := gen.Stats(data)
	r.inputs = append(r.inputs, inputSummary{name, st.Bytes, st.Objects, st.Arrays, st.Attributes, st.Primitives, st.MaxDepth})
}

// answer is what an operation's output is checked against: the match
// count and an order-independent checksum of the matched value bytes.
type answer struct {
	count int64
	sum   uint64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (a *answer) add(v []byte) {
	a.count++
	a.sum += uint64(crc32.Checksum(v, castagnoli)) + 1
}

// sumSink is the sink the measured loops run into: CountSink's span
// count plus a CRC-32C of every matched value, so each operation's
// output is checked, not just its count.
type sumSink struct {
	data []byte
	got  answer
}

func (s *sumSink) Begin(_ int, data []byte) { s.data = data }
func (s *sumSink) Span(start, end int) error {
	s.got.add(s.data[start:end])
	return nil
}
func (s *sumSink) Flush() error { return nil }

// reference evaluates each expression over data with the domparser
// DOM evaluator, an implementation independent of the streaming
// engines, parsing the document once.
func reference(data []byte, exprs ...string) ([]answer, error) {
	doc, err := domparser.ParseDoc(data)
	if err != nil {
		return nil, err
	}
	out := make([]answer, len(exprs))
	for i, e := range exprs {
		p, err := jsonpath.Parse(e)
		if err != nil {
			return nil, err
		}
		doc.EvalSpans(p.Steps, func(s, t int) { out[i].add(data[s:t]) })
	}
	return out, nil
}

// lookup is one on-demand access path with the value the DOM decodes
// at its end.
type lookup struct {
	path []string
	want any
}

// pickLookups walks n seeded random root-to-leaf paths through the
// DOM of data and records each leaf's decoded value.
func pickLookups(data []byte, n int, seed int64) ([]lookup, error) {
	root, err := domparser.Parse(data)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var out []lookup
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		node, path := root, []string{}
		ok := true
		for ok && (node.Kind == domparser.KindObject || node.Kind == domparser.KindArray) {
			if len(node.Children) == 0 {
				ok = false
				break
			}
			i := rng.Intn(len(node.Children))
			if node.Kind == domparser.KindArray {
				path = append(path, strconv.Itoa(i))
			} else {
				key := string(node.Keys[i])
				// Lookup reads an all-digit segment as an index, and
				// the path syntax has no escapes.
				if _, err := strconv.Atoi(key); err == nil || bytes.ContainsAny(node.Keys[i], `\"`) {
					ok = false
					break
				}
				path = append(path, key)
			}
			node = node.Children[i]
		}
		if !ok {
			continue
		}
		var v any
		if err := json.Unmarshal(data[node.Span[0]:node.Span[1]], &v); err != nil {
			return nil, fmt.Errorf("reference decode of %v: %w", path, err)
		}
		out = append(out, lookup{path, v})
	}
	if len(out) < n {
		return nil, fmt.Errorf("found %d of %d lookup paths", len(out), n)
	}
	return out, nil
}

// check runs the lookup on-demand over ix and compares the decoded
// scalar with the reference.
func (lk lookup) check(ix *jsonski.Index) error {
	d := jsonski.OpenIndexed(ix)
	defer d.Close()
	v := d.Lookup(lk.path...)
	var got any
	var err error
	switch want := lk.want.(type) {
	case string:
		got, err = v.String()
	case float64:
		got, err = v.Float()
	case bool:
		got, err = v.Bool()
	case nil:
		got, err = nil, v.Err()
		if err == nil && !v.IsNull() {
			err = fmt.Errorf("not null")
		}
	default:
		return fmt.Errorf("lookup %v: unexpected reference type %T", lk.path, want)
	}
	if err != nil {
		return fmt.Errorf("lookup %v: %w", lk.path, err)
	}
	if !reflect.DeepEqual(got, lk.want) {
		return fmt.Errorf("lookup %v: got %v, want %v", lk.path, got, lk.want)
	}
	return nil
}
